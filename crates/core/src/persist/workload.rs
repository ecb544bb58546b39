//! Workload files: a whole serving scenario — initial KB, rules, and an
//! interleaved stream of context events and ranking requests — in one
//! versioned, checksummed binary file.
//!
//! A workload file is the unit of exchange between the scenario
//! generators (`capra-tvtouch`, `capra-commerce`, `capra-teamctx`) and
//! the replay driver ([`crate::serve::replay_workload`] / the `xtask`
//! CLI): generate once, replay anywhere, and — because every identity
//! travels as a *name* and every probability as raw IEEE-754 bits — the
//! replayed ranking transcript is bit-identical run over run.
//!
//! ## File format
//!
//! ```text
//! [8B magic "CAPRAWKL"][u16 version]
//! [section: meta]      — domain, seed, comment
//! [section: kb]        — the initial knowledge base (snapshot codec)
//! [section: rules]     — the preference rules (snapshot codec)
//! [section: records]   — the request stream, in replay order
//! ```
//!
//! Sections use the same `[u32 len][u32 crc32][payload]` frame as
//! snapshots; a failed CRC, short read, unknown tag, or out-of-range
//! probability surfaces as a typed [`PersistError`] — decode never
//! panics on corrupt input.

use std::path::Path;

use super::codec::{crc32, read_section, Reader, Writer};
use super::snapshot::{decode_kb, decode_rules, encode_kb, encode_rules};
use super::PersistError;
use crate::multiuser::GroupStrategy;
use crate::{Kb, RuleRepository};

/// Magic bytes opening every workload file.
pub(crate) const WORKLOAD_MAGIC: &[u8; 8] = b"CAPRAWKL";
/// The single workload format version this build reads and writes.
pub(crate) const WORKLOAD_VERSION: u16 = 1;
/// Upper bound on the record count — a larger prefix is framing
/// corruption, not a real workload.
const MAX_RECORDS: usize = 1 << 26;
/// Upper bound on group members / candidate documents per request.
const MAX_NAMES: usize = 1 << 22;

/// FNV-1a 64-bit over `bytes` — the digest used for workload file
/// identity and replay transcript hashes. Stable across processes and
/// platforms (it only ever sees explicit little-endian byte streams).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64 state (the streaming form of [`digest`]).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` as its little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Provenance of a workload file: which generator produced it and from
/// what seed, so a replay report can identify the input.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadMeta {
    /// The domain pack that generated the workload (`"commerce"`,
    /// `"teamctx"`, `"tvtouch"`, …).
    pub domain: String,
    /// The generator seed — same seed, same generator, same file.
    pub seed: u64,
    /// Free-form description (configuration summary, notes).
    pub comment: String,
}

/// A typed fact in a workload record — the name-carrying twin of
/// [`crate::serve::Fact`] (which holds interned [`capra_dl::IndividualId`]
/// handles and is therefore process-local).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadFact {
    /// `subject : concept`, certain.
    Concept(String),
    /// `subject : concept` under a fresh independent event with this
    /// probability.
    ConceptProb(String, f64),
    /// `(subject, object) : role`, certain.
    Role(String, String),
    /// `(subject, object) : role` under a fresh independent event with
    /// this probability.
    RoleProb(String, String, f64),
}

/// One record of the request stream. Replay applies records strictly in
/// file order; every identity is a name, resolved (and registered if
/// new) against the service's KB at replay time.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRecord {
    /// A context event: assert `fact` about `subject`.
    Assert {
        /// The individual the fact is about.
        subject: String,
        /// The fact itself.
        fact: WorkloadFact,
    },
    /// Rank `docs` for `user`, returning the top `k`.
    Rank {
        /// The requesting tenant.
        user: String,
        /// Candidate documents.
        docs: Vec<String>,
        /// How many ranked results to return.
        k: u32,
    },
    /// Rank `docs` for a group of users under `strategy`.
    RankGroup {
        /// The group members.
        users: Vec<String>,
        /// Candidate documents.
        docs: Vec<String>,
        /// How many ranked results to return.
        k: u32,
        /// How per-user probabilities combine.
        strategy: GroupStrategy,
    },
}

/// A complete serialized workload: the initial world plus the request
/// stream to drive against it.
///
/// ```
/// use capra_core::persist::{Workload, WorkloadMeta, WorkloadRecord};
/// use capra_core::{Kb, RuleRepository};
///
/// let mut kb = Kb::new();
/// let u = kb.individual("u");
/// let d = kb.individual("d");
/// kb.assert_concept_prob(u, "Ctx", 0.7).unwrap();
/// kb.assert_concept_prob(d, "Feat", 0.9).unwrap();
/// let w = Workload {
///     meta: WorkloadMeta { domain: "demo".into(), seed: 7, comment: String::new() },
///     kb,
///     rules: RuleRepository::new(),
///     records: vec![WorkloadRecord::Rank { user: "u".into(), docs: vec!["d".into()], k: 1 }],
/// };
/// let bytes = w.encode();
/// let back = Workload::decode(&bytes).unwrap();
/// assert_eq!(back.records, w.records);
/// assert_eq!(back.encode(), bytes); // byte-identical round trip
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    /// Provenance (generator domain, seed, comment).
    pub meta: WorkloadMeta,
    /// The initial knowledge base (context + document features).
    pub kb: Kb,
    /// The preference rules.
    pub rules: RuleRepository,
    /// The request stream, in replay order.
    pub records: Vec<WorkloadRecord>,
}

impl Workload {
    /// Serializes the workload. Encoding is a pure function of the
    /// contents: the same workload always produces the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.emit(|bytes| out.extend_from_slice(bytes));
        out
    }

    /// Hands the file's bytes to `sink` in order, piece by piece as each
    /// section is produced — magic, version, then every section's frame
    /// and payload — so [`Workload::file_digest`] hashes what
    /// [`Workload::encode`] collects without building the file.
    fn emit(&self, mut sink: impl FnMut(&[u8])) {
        sink(WORKLOAD_MAGIC);
        sink(&WORKLOAD_VERSION.to_le_bytes());
        let mut section = |payload: &[u8]| {
            sink(&(payload.len() as u32).to_le_bytes());
            sink(&crc32(payload).to_le_bytes());
            sink(payload);
        };

        let mut meta = Writer::new();
        meta.str(&self.meta.domain);
        meta.u64(self.meta.seed);
        meta.str(&self.meta.comment);
        section(&meta.into_bytes());

        section(&encode_kb(&self.kb));
        section(&encode_rules(&self.rules, &self.kb.voc));

        let len = 4 + self.records.iter().map(record_len).sum::<usize>();
        let mut rec = Writer::with_capacity(len);
        rec.u32(self.records.len() as u32);
        for record in &self.records {
            put_record(&mut rec, record);
        }
        let rec = rec.into_bytes();
        debug_assert_eq!(rec.len(), len, "record_len disagrees with put_record");
        section(&rec);
    }

    /// Decodes a workload file, verifying magic, version, and every
    /// section CRC. Never panics on corrupt input.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != WORKLOAD_MAGIC {
            return Err(PersistError::BadMagic { format: "workload" });
        }
        let version = r.u16()?;
        if version != WORKLOAD_VERSION {
            return Err(PersistError::BadVersion {
                format: "workload",
                found: version,
                supported: WORKLOAD_VERSION,
            });
        }

        let meta_bytes = read_section(&mut r)?;
        let mut m = Reader::new(meta_bytes);
        let meta = WorkloadMeta {
            domain: m.str()?,
            seed: m.u64()?,
            comment: m.str()?,
        };
        m.finish()?;

        let mut kb = decode_kb(read_section(&mut r)?)?;
        let rules = decode_rules(read_section(&mut r)?, &mut kb.voc)?;

        let rec_bytes = read_section(&mut r)?;
        r.finish()?;
        let mut rr = Reader::new(rec_bytes);
        let count = rr.u32()? as usize;
        if count > MAX_RECORDS {
            return Err(PersistError::Invalid(format!(
                "workload claims {count} records (limit {MAX_RECORDS})"
            )));
        }
        let mut records = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            records.push(read_record(&mut rr)?);
        }
        rr.finish()?;

        Ok(Self {
            meta,
            kb,
            rules,
            records,
        })
    }

    /// Encodes and writes the workload to `path` (no fsync — workload
    /// files are generated artifacts, not durability state).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.encode()).map_err(PersistError::from)
    }

    /// Reads and decodes a workload file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path).map_err(PersistError::from)?;
        Self::decode(&bytes)
    }

    /// The FNV-1a digest of the encoded file — a stable identity for
    /// "same workload" checks (regression pins, CLI output).
    pub fn file_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.emit(|bytes| h.update(bytes));
        h.finish()
    }

    /// Number of rank-shaped records ([`WorkloadRecord::Rank`] +
    /// [`WorkloadRecord::RankGroup`]).
    pub fn rank_records(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !matches!(r, WorkloadRecord::Assert { .. }))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

const REC_ASSERT: u8 = 1;
const REC_RANK: u8 = 2;
const REC_RANK_GROUP: u8 = 3;

const FACT_CONCEPT: u8 = 1;
const FACT_CONCEPT_PROB: u8 = 2;
const FACT_ROLE: u8 = 3;
const FACT_ROLE_PROB: u8 = 4;

const STRAT_PRODUCT: u8 = 1;
const STRAT_WEIGHTED: u8 = 2;
const STRAT_LEAST_MISERY: u8 = 3;
const STRAT_MOST_PLEASURE: u8 = 4;

fn put_record(w: &mut Writer, record: &WorkloadRecord) {
    match record {
        WorkloadRecord::Assert { subject, fact } => {
            w.u8(REC_ASSERT);
            w.str(subject);
            match fact {
                WorkloadFact::Concept(c) => {
                    w.u8(FACT_CONCEPT);
                    w.str(c);
                }
                WorkloadFact::ConceptProb(c, p) => {
                    w.u8(FACT_CONCEPT_PROB);
                    w.str(c);
                    w.f64(*p);
                }
                WorkloadFact::Role(role, object) => {
                    w.u8(FACT_ROLE);
                    w.str(role);
                    w.str(object);
                }
                WorkloadFact::RoleProb(role, object, p) => {
                    w.u8(FACT_ROLE_PROB);
                    w.str(role);
                    w.str(object);
                    w.f64(*p);
                }
            }
        }
        WorkloadRecord::Rank { user, docs, k } => {
            w.u8(REC_RANK);
            w.str(user);
            put_names(w, docs);
            w.u32(*k);
        }
        WorkloadRecord::RankGroup {
            users,
            docs,
            k,
            strategy,
        } => {
            w.u8(REC_RANK_GROUP);
            put_names(w, users);
            put_names(w, docs);
            w.u32(*k);
            match strategy {
                GroupStrategy::Product => w.u8(STRAT_PRODUCT),
                GroupStrategy::WeightedAverage(weights) => {
                    w.u8(STRAT_WEIGHTED);
                    w.u32(weights.len() as u32);
                    for &weight in weights {
                        w.f64(weight);
                    }
                }
                GroupStrategy::LeastMisery => w.u8(STRAT_LEAST_MISERY),
                GroupStrategy::MostPleasure => w.u8(STRAT_MOST_PLEASURE),
            }
        }
    }
}

/// The bytes [`put_record`] writes for `record`.
fn record_len(record: &WorkloadRecord) -> usize {
    let text = |s: &String| 4 + s.len();
    let names = |names: &[String]| 4 + names.iter().map(text).sum::<usize>();
    1 + match record {
        WorkloadRecord::Assert { subject, fact } => {
            let fact = match fact {
                WorkloadFact::Concept(c) => text(c),
                WorkloadFact::ConceptProb(c, _) => text(c) + 8,
                WorkloadFact::Role(r, o) => text(r) + text(o),
                WorkloadFact::RoleProb(r, o, _) => text(r) + text(o) + 8,
            };
            text(subject) + 1 + fact
        }
        WorkloadRecord::Rank { user, docs, .. } => text(user) + names(docs) + 4,
        WorkloadRecord::RankGroup {
            users,
            docs,
            strategy,
            ..
        } => {
            let weights = match strategy {
                GroupStrategy::WeightedAverage(weights) => 4 + 8 * weights.len(),
                _ => 0,
            };
            names(users) + names(docs) + 4 + 1 + weights
        }
    }
}

fn read_record(r: &mut Reader<'_>) -> Result<WorkloadRecord, PersistError> {
    match r.u8()? {
        REC_ASSERT => {
            let subject = r.str()?;
            let fact = match r.u8()? {
                FACT_CONCEPT => WorkloadFact::Concept(r.str()?),
                FACT_CONCEPT_PROB => WorkloadFact::ConceptProb(r.str()?, read_prob(r)?),
                FACT_ROLE => WorkloadFact::Role(r.str()?, r.str()?),
                FACT_ROLE_PROB => WorkloadFact::RoleProb(r.str()?, r.str()?, read_prob(r)?),
                tag => {
                    return Err(PersistError::Invalid(format!(
                        "unknown workload fact tag {tag}"
                    )))
                }
            };
            Ok(WorkloadRecord::Assert { subject, fact })
        }
        REC_RANK => Ok(WorkloadRecord::Rank {
            user: r.str()?,
            docs: read_names(r)?,
            k: r.u32()?,
        }),
        REC_RANK_GROUP => {
            let users = read_names(r)?;
            let docs = read_names(r)?;
            let k = r.u32()?;
            let strategy = match r.u8()? {
                STRAT_PRODUCT => GroupStrategy::Product,
                STRAT_WEIGHTED => {
                    let n = r.u32()? as usize;
                    if n > MAX_NAMES {
                        return Err(PersistError::Invalid(format!(
                            "strategy claims {n} weights (limit {MAX_NAMES})"
                        )));
                    }
                    let mut weights = Vec::with_capacity(n);
                    for _ in 0..n {
                        let weight = r.f64()?;
                        if !weight.is_finite() || weight < 0.0 {
                            return Err(PersistError::Invalid(format!(
                                "strategy weight {weight} is not a finite non-negative number"
                            )));
                        }
                        weights.push(weight);
                    }
                    GroupStrategy::WeightedAverage(weights)
                }
                STRAT_LEAST_MISERY => GroupStrategy::LeastMisery,
                STRAT_MOST_PLEASURE => GroupStrategy::MostPleasure,
                tag => {
                    return Err(PersistError::Invalid(format!(
                        "unknown group strategy tag {tag}"
                    )))
                }
            };
            Ok(WorkloadRecord::RankGroup {
                users,
                docs,
                k,
                strategy,
            })
        }
        tag => Err(PersistError::Invalid(format!(
            "unknown workload record tag {tag}"
        ))),
    }
}

fn put_names(w: &mut Writer, names: &[String]) {
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>, PersistError> {
    let n = r.u32()? as usize;
    if n > MAX_NAMES {
        return Err(PersistError::Invalid(format!(
            "record claims {n} names (limit {MAX_NAMES})"
        )));
    }
    let mut names = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        names.push(r.str()?);
    }
    Ok(names)
}

fn read_prob(r: &mut Reader<'_>) -> Result<f64, PersistError> {
    let p = r.f64()?;
    if !(0.0..=1.0).contains(&p) {
        return Err(PersistError::Invalid(format!(
            "probability {p} is outside [0, 1]"
        )));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        let mut kb = Kb::new();
        let user = kb.individual("user0");
        let doc = kb.individual("doc0");
        let brand = kb.individual("BrandX");
        kb.assert_concept_prob(user, "Gift", 0.7).unwrap();
        kb.assert_concept_prob(doc, "Premium", 0.9).unwrap();
        kb.assert_role(doc, "fromBrand", brand);
        let mut rules = RuleRepository::new();
        rules
            .add(crate::PreferenceRule::new(
                "R",
                kb.parse("Gift").unwrap(),
                kb.parse("Premium").unwrap(),
                crate::Score::new(0.9).unwrap(),
            ))
            .unwrap();
        Workload {
            meta: WorkloadMeta {
                domain: "test".into(),
                seed: 42,
                comment: "unit fixture".into(),
            },
            kb,
            rules,
            records: vec![
                WorkloadRecord::Rank {
                    user: "user0".into(),
                    docs: vec!["doc0".into()],
                    k: 1,
                },
                WorkloadRecord::Assert {
                    subject: "user0".into(),
                    fact: WorkloadFact::ConceptProb("Gift".into(), 0.2),
                },
                WorkloadRecord::Assert {
                    subject: "doc0".into(),
                    fact: WorkloadFact::RoleProb("fromBrand".into(), "BrandY".into(), 0.5),
                },
                WorkloadRecord::RankGroup {
                    users: vec!["user0".into()],
                    docs: vec!["doc0".into()],
                    k: 1,
                    strategy: GroupStrategy::WeightedAverage(vec![1.0]),
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let w = sample();
        let bytes = w.encode();
        let back = Workload::decode(&bytes).unwrap();
        assert_eq!(back.meta, w.meta);
        assert_eq!(back.records, w.records);
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.file_digest(), w.file_digest());
    }

    #[test]
    fn the_file_digest_is_the_digest_of_the_encoded_file() {
        let w = sample();
        assert_eq!(w.file_digest(), digest(&w.encode()));
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        // FNV-1a 64 reference vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        let w = sample();
        let mut other = sample();
        other.records.pop();
        assert_ne!(w.file_digest(), other.file_digest());
    }

    #[test]
    fn corrupt_input_is_detected_not_panicked() {
        let w = sample();
        let bytes = w.encode();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Workload::decode(&bad),
            Err(PersistError::BadMagic { format: "workload" })
        ));

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            Workload::decode(&bad),
            Err(PersistError::BadVersion { .. })
        ));

        // A payload bit flip fails some section's CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            Workload::decode(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // Truncation at every prefix length never panics.
        for len in 0..bytes.len().min(64) {
            assert!(Workload::decode(&bytes[..len]).is_err());
        }
        assert!(Workload::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn out_of_range_probability_is_rejected() {
        let mut w = sample();
        w.records = vec![WorkloadRecord::Assert {
            subject: "user0".into(),
            fact: WorkloadFact::ConceptProb("Gift".into(), 0.5),
        }];
        let mut bytes = w.encode();
        // The probability is the trailing f64 of the records section;
        // overwrite it with 2.0 and re-frame the section CRC.
        let plen = bytes.len();
        bytes[plen - 8..].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        // Recompute the records-section CRC (it is the 4 bytes right
        // after the section length, which precedes the payload).
        let rec_payload_len = {
            let mut r = Reader::new(&bytes[10..]);
            // meta, kb, rules sections — skip three frames.
            for _ in 0..3 {
                let len = r.u32().unwrap() as usize;
                let _crc = r.u32().unwrap();
                r.take(len).unwrap();
            }
            r.u32().unwrap() as usize
        };
        let rec_start = bytes.len() - rec_payload_len;
        let crc = super::super::codec::crc32(&bytes[rec_start..]);
        bytes[rec_start - 4..rec_start].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Workload::decode(&bytes),
            Err(PersistError::Invalid(msg)) if msg.contains("probability")
        ));
    }

    #[test]
    fn unknown_record_tag_is_invalid() {
        let mut rec = Writer::new();
        rec.u32(1);
        rec.u8(99);
        let bytes = rec.into_bytes();
        let mut r = Reader::new(&bytes[4..]);
        assert!(matches!(
            read_record(&mut r),
            Err(PersistError::Invalid(msg)) if msg.contains("record tag")
        ));
    }
}
