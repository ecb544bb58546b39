//! The snapshot format: versioned binary codecs for the [`Kb`] (universe,
//! vocabulary, TBox, ABox with exact epochs) and the [`RuleRepository`],
//! plus the container file that frames both (and a small
//! recovery-metadata section) behind a magic header.
//!
//! Interned handles are process-local, so every format stores *names* and
//! decodes by re-interning in the original order: the rebuilt vocabulary
//! and universe assign bit-identical handles, which is what makes replayed
//! scores match the uninterrupted run exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use capra_dl::{ABox, Concept, RoleEdge, Vocabulary};
use capra_events::{EventExpr, Universe, VarId};

use super::codec::{put_section, read_section, Reader, Writer};
use super::PersistError;
use crate::{Kb, PreferenceRule, RuleRepository, Score};

/// Magic bytes opening every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"CAPRASNP";
/// The snapshot format version this build writes.
pub(crate) const SNAPSHOT_VERSION: u16 = 2;
/// The older version it still reads: a `Covered` directory may hold a
/// version-1 snapshot whose WAL prefix is already deleted.
const SNAPSHOT_VERSION_1: u16 = 1;

/// Recursion guard for the expression and concept decoders: corrupt input
/// could otherwise encode a nesting chain deep enough to overflow the
/// stack, and decode paths must degrade to an error, never crash.
const MAX_DEPTH: u32 = 512;

fn too_deep(what: &str) -> PersistError {
    PersistError::Invalid(format!("{what} nesting exceeds {MAX_DEPTH} levels"))
}

// ---------------------------------------------------------------------------
// Event expressions
// ---------------------------------------------------------------------------

/// Tags: 0 ⊤, 1 ⊥, 2 atom `[u32 var index][u16 alt]`, 3 ¬, 4 ∧ `[u32 n]`,
/// 5 ∨ `[u32 n]`. Variables travel as their dense universe index — the
/// decoder maps them through the re-interned universe's `var_ids()` order.
fn put_expr(w: &mut Writer, e: &EventExpr) {
    match e {
        EventExpr::True => w.u8(0),
        EventExpr::False => w.u8(1),
        EventExpr::Atom(a) => {
            w.u8(2);
            w.u32(a.var.index() as u32);
            w.u16(a.alt);
        }
        EventExpr::Not(n) => {
            w.u8(3);
            let inner: &EventExpr = n;
            put_expr(w, inner);
        }
        EventExpr::And(kids) => {
            let kids: &[EventExpr] = kids;
            w.u8(4);
            w.u32(kids.len() as u32);
            for k in kids {
                put_expr(w, k);
            }
        }
        EventExpr::Or(kids) => {
            let kids: &[EventExpr] = kids;
            w.u8(5);
            w.u32(kids.len() as u32);
            for k in kids {
                put_expr(w, k);
            }
        }
    }
}

/// Decodes one event expression against the (already rebuilt) universe.
/// `vars` is the universe's variable list in `var_ids()` order, so stored
/// dense indices resolve without constructing raw handles.
fn read_expr(
    r: &mut Reader<'_>,
    universe: &Universe,
    vars: &[VarId],
    depth: u32,
) -> Result<EventExpr, PersistError> {
    if depth > MAX_DEPTH {
        return Err(too_deep("event expression"));
    }
    match r.u8()? {
        0 => Ok(EventExpr::True),
        1 => Ok(EventExpr::False),
        2 => {
            let idx = r.u32()? as usize;
            let alt = r.u16()?;
            let var = *vars.get(idx).ok_or_else(|| {
                PersistError::Invalid(format!("event variable index {idx} out of range"))
            })?;
            universe
                .atom(var, alt)
                .map_err(|e| PersistError::Invalid(e.to_string()))
        }
        3 => Ok(EventExpr::not(read_expr(r, universe, vars, depth + 1)?)),
        tag @ (4 | 5) => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                // Each child costs ≥ 1 byte, so a larger count is a lie.
                return Err(PersistError::Truncated {
                    needed: n,
                    available: r.remaining(),
                });
            }
            let mut kids = Vec::with_capacity(n);
            for _ in 0..n {
                kids.push(read_expr(r, universe, vars, depth + 1)?);
            }
            Ok(if tag == 4 {
                EventExpr::and(kids)
            } else {
                EventExpr::or(kids)
            })
        }
        t => Err(PersistError::Invalid(format!(
            "unknown event-expression tag {t}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Concepts
// ---------------------------------------------------------------------------

/// Tags: 0 ⊤, 1 ⊥, 2 atomic `[name]`, 3 nominal `[u32 n][names…]`, 4 ¬,
/// 5 ⊓ `[u32 n]`, 6 ⊔ `[u32 n]`, 7 ∃ `[role][filler]`, 8 ∀
/// `[role][filler]`. All references travel as name strings.
pub(crate) fn put_concept(w: &mut Writer, c: &Concept, voc: &Vocabulary) {
    match c {
        Concept::Top => w.u8(0),
        Concept::Bottom => w.u8(1),
        Concept::Atomic(name) => {
            w.u8(2);
            w.str(voc.concept_name(*name));
        }
        Concept::OneOf(set) => {
            w.u8(3);
            w.u32(set.len() as u32);
            for &i in set.iter() {
                w.str(voc.individual_name(i));
            }
        }
        Concept::Not(inner) => {
            w.u8(4);
            put_concept(w, inner, voc);
        }
        Concept::And(kids) => {
            w.u8(5);
            w.u32(kids.len() as u32);
            for k in kids.iter() {
                put_concept(w, k, voc);
            }
        }
        Concept::Or(kids) => {
            w.u8(6);
            w.u32(kids.len() as u32);
            for k in kids.iter() {
                put_concept(w, k, voc);
            }
        }
        Concept::Exists(role, filler) => {
            w.u8(7);
            w.str(voc.role_name(*role));
            put_concept(w, filler, voc);
        }
        Concept::Forall(role, filler) => {
            w.u8(8);
            w.str(voc.role_name(*role));
            put_concept(w, filler, voc);
        }
    }
}

/// Decodes one concept, re-interning every referenced name. Building
/// through the canonicalizing [`Concept`] constructors is an identity here
/// because the encoded concept was already canonical.
pub(crate) fn read_concept(
    r: &mut Reader<'_>,
    voc: &mut Vocabulary,
    depth: u32,
) -> Result<Concept, PersistError> {
    if depth > MAX_DEPTH {
        return Err(too_deep("concept"));
    }
    match r.u8()? {
        0 => Ok(Concept::Top),
        1 => Ok(Concept::Bottom),
        2 => {
            let name = r.str()?;
            Ok(Concept::atomic(voc.concept(&name)))
        }
        3 => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(PersistError::Truncated {
                    needed: n,
                    available: r.remaining(),
                });
            }
            let mut inds = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                inds.push(voc.individual(&name));
            }
            Ok(Concept::one_of(inds))
        }
        4 => Ok(Concept::not(read_concept(r, voc, depth + 1)?)),
        tag @ (5 | 6) => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(PersistError::Truncated {
                    needed: n,
                    available: r.remaining(),
                });
            }
            let mut kids = Vec::with_capacity(n);
            for _ in 0..n {
                kids.push(read_concept(r, voc, depth + 1)?);
            }
            Ok(if tag == 5 {
                Concept::and(kids)
            } else {
                Concept::or(kids)
            })
        }
        tag @ (7 | 8) => {
            let role_name = r.str()?;
            let role = voc.role(&role_name);
            let filler = read_concept(r, voc, depth + 1)?;
            Ok(if tag == 7 {
                Concept::exists(role, filler)
            } else {
                Concept::forall(role, filler)
            })
        }
        t => Err(PersistError::Invalid(format!("unknown concept tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Knowledge base
// ---------------------------------------------------------------------------

/// Encodes a full [`Kb`] — universe, vocabulary, TBox, ABox — such that
/// [`decode_kb`] rebuilds it with identical interning order and epochs.
pub fn encode_kb(kb: &Kb) -> Vec<u8> {
    let voc = &kb.voc;
    let mut w = Writer::new();

    // Universe: variables in id order, each with its alternative
    // distribution (raw f64 bits — `add_choice` on decode stores them
    // verbatim, so probabilities round-trip bit-exactly).
    w.u32(kb.universe.len() as u32);
    for var in kb.universe.var_ids() {
        w.str(kb.universe.name(var).expect("var from var_ids"));
        let alts = kb.universe.num_alts(var).expect("var from var_ids");
        w.u16(alts as u16);
        for alt in 0..alts {
            w.f64(
                kb.universe
                    .alt_prob(var, alt as u16)
                    .expect("alt index in range"),
            );
        }
    }

    // Vocabulary: the three name tables in interning order, so re-interning
    // on decode reproduces every handle.
    for_names(&mut w, voc.concept_names());
    for_names(&mut w, voc.role_names());
    for_names(&mut w, voc.individual_names());

    // TBox: definitions in stable (BTreeMap) order. The TBox epoch equals
    // the definition count, so replaying `define` restores it.
    w.u32(kb.tbox.len() as u32);
    for (name, body) in kb.tbox.definitions() {
        w.str(voc.concept_name(name));
        put_concept(&mut w, body, voc);
    }

    // ABox: explicit epoch (not derivable from the final tables), domain,
    // then concept and role tables in name-index order.
    w.u64(kb.abox.epoch());
    let domain = kb.abox.domain();
    w.u32(domain.len() as u32);
    for &i in domain {
        w.str(voc.individual_name(i));
    }
    let mut concepts: Vec<_> = kb.abox.concepts().collect();
    concepts.sort_by_key(|c| c.index());
    w.u32(concepts.len() as u32);
    for c in concepts {
        w.str(voc.concept_name(c));
        let rows: Vec<_> = kb.abox.concept_rows(c).collect();
        w.u32(rows.len() as u32);
        for (ind, event) in rows {
            w.str(voc.individual_name(ind));
            put_expr(&mut w, event);
        }
    }
    let mut roles: Vec<_> = kb.abox.roles().collect();
    roles.sort_by_key(|r| r.index());
    w.u32(roles.len() as u32);
    for role in roles {
        w.str(voc.role_name(role));
        let edges = kb.abox.role_edges(role);
        w.u32(edges.len() as u32);
        for edge in edges {
            w.str(voc.individual_name(edge.src));
            w.str(voc.individual_name(edge.dst));
            put_expr(&mut w, &edge.event);
        }
    }

    w.into_bytes()
}

fn for_names<'a>(w: &mut Writer, names: impl Iterator<Item = &'a str>) {
    let names: Vec<&str> = names.collect();
    w.u32(names.len() as u32);
    for n in names {
        w.str(n);
    }
}

/// Decodes a [`Kb`] previously written by [`encode_kb`]. Never panics on
/// corrupt input — every structural or semantic problem surfaces as a
/// [`PersistError`].
pub fn decode_kb(bytes: &[u8]) -> Result<Kb, PersistError> {
    let mut r = Reader::new(bytes);
    let mut kb = Kb::new();

    // Universe.
    let n_vars = r.u32()?;
    for _ in 0..n_vars {
        let name = r.str()?;
        let alts = r.u16()? as usize;
        let mut probs = Vec::with_capacity(alts);
        for _ in 0..alts {
            probs.push(r.f64()?);
        }
        kb.universe
            .add_choice(&name, &probs)
            .map_err(|e| PersistError::Invalid(e.to_string()))?;
    }

    // Vocabulary (re-intern in order; handles come out identical).
    for _ in 0..r.u32()? {
        let name = r.str()?;
        kb.voc.concept(&name);
    }
    for _ in 0..r.u32()? {
        let name = r.str()?;
        kb.voc.role(&name);
    }
    for _ in 0..r.u32()? {
        let name = r.str()?;
        kb.voc.individual(&name);
    }

    // TBox.
    let n_defs = r.u32()?;
    for _ in 0..n_defs {
        let name = r.str()?;
        let handle = kb.voc.concept(&name);
        let body = read_concept(&mut r, &mut kb.voc, 0)?;
        kb.tbox
            .define(handle, body, &kb.voc)
            .map_err(|e| PersistError::Invalid(e.to_string()))?;
    }

    // ABox. Every name must already be in the vocabulary table above —
    // dangling references mean the file is inconsistent.
    let epoch = r.u64()?;
    let vars: Vec<VarId> = kb.universe.var_ids().collect();
    let mut domain = BTreeSet::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        domain.insert(find_individual(&kb.voc, &name)?);
    }
    let mut concepts = HashMap::new();
    for _ in 0..r.u32()? {
        let cname = r.str()?;
        let concept = kb.voc.find_concept(&cname).ok_or_else(|| {
            PersistError::Invalid(format!("ABox references unknown concept `{cname}`"))
        })?;
        let mut rows = BTreeMap::new();
        for _ in 0..r.u32()? {
            let ind = find_individual(&kb.voc, &r.str()?)?;
            let event = read_expr(&mut r, &kb.universe, &vars, 0)?;
            rows.insert(ind, event);
        }
        concepts.insert(concept, rows);
    }
    let mut roles = HashMap::new();
    for _ in 0..r.u32()? {
        let rname = r.str()?;
        let role = kb.voc.find_role(&rname).ok_or_else(|| {
            PersistError::Invalid(format!("ABox references unknown role `{rname}`"))
        })?;
        let mut edges = Vec::new();
        for _ in 0..r.u32()? {
            let src = find_individual(&kb.voc, &r.str()?)?;
            let dst = find_individual(&kb.voc, &r.str()?)?;
            let event = read_expr(&mut r, &kb.universe, &vars, 0)?;
            edges.push(RoleEdge { src, dst, event });
        }
        roles.insert(role, edges);
    }
    kb.abox = ABox::from_parts(concepts, roles, domain, epoch);

    r.finish()?;
    Ok(kb)
}

fn find_individual(voc: &Vocabulary, name: &str) -> Result<capra_dl::IndividualId, PersistError> {
    voc.find_individual(name).ok_or_else(|| {
        PersistError::Invalid(format!("ABox references unknown individual `{name}`"))
    })
}

// ---------------------------------------------------------------------------
// Rule repository
// ---------------------------------------------------------------------------

/// Encodes a [`RuleRepository`]; concepts travel as name strings resolved
/// against `voc` (the KB's vocabulary the rules were parsed under).
pub fn encode_rules(rules: &RuleRepository, voc: &Vocabulary) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(rules.len() as u32);
    for rule in rules.rules() {
        w.str(&rule.name);
        put_concept(&mut w, &rule.context, voc);
        put_concept(&mut w, &rule.preference, voc);
        w.f64(rule.sigma.get());
    }
    w.into_bytes()
}

/// Decodes a [`RuleRepository`] written by [`encode_rules`], re-interning
/// concept/role/individual references into `voc`.
pub fn decode_rules(bytes: &[u8], voc: &mut Vocabulary) -> Result<RuleRepository, PersistError> {
    let mut r = Reader::new(bytes);
    let mut repo = RuleRepository::new();
    let n = r.u32()?;
    for _ in 0..n {
        let name = r.str()?;
        let context = read_concept(&mut r, voc, 0)?;
        let preference = read_concept(&mut r, voc, 0)?;
        let sigma = Score::new(r.f64()?).map_err(|e| PersistError::Invalid(e.to_string()))?;
        repo.add(PreferenceRule::new(&name, context, preference, sigma))
            .map_err(|e| PersistError::Invalid(e.to_string()))?;
    }
    r.finish()?;
    Ok(repo)
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

/// Everything a snapshot restores: the KB, the rules, the tenants that
/// were warm at save time, and the WAL sequence number the snapshot is
/// consistent up to. The default is a cold start.
#[derive(Default)]
pub(crate) struct RecoveredSnapshot {
    /// The restored knowledge base.
    pub kb: Kb,
    /// The restored rule repository.
    pub rules: RuleRepository,
    /// Names of tenants that were live at save time (re-seeded at boot).
    pub warm_users: Vec<String>,
    /// WAL records with `seq <= last_applied_seq` are already reflected.
    pub last_applied_seq: u64,
}

/// Encodes a complete snapshot file: magic + version, then three
/// CRC-framed sections (KB, rules, recovery metadata). State only — no
/// caches — so the bytes are a function of the state.
pub(crate) fn encode_snapshot(
    kb: &Kb,
    rules: &RuleRepository,
    warm_users: &[String],
    last_applied_seq: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    put_section(&mut out, &encode_kb(kb));
    put_section(&mut out, &encode_rules(rules, &kb.voc));
    let mut meta = Writer::new();
    meta.u64(last_applied_seq);
    meta.u32(warm_users.len() as u32);
    for name in warm_users {
        meta.str(name);
    }
    put_section(&mut out, &meta.into_bytes());
    out
}

/// Decodes a snapshot file written by [`encode_snapshot`], or a version-1
/// file, whose evaluation-memo section between rules and meta must pass
/// its CRC and is then dropped. Any corruption — wrong magic, unsupported
/// version, failed section CRC, truncation, semantic inconsistency —
/// returns a [`PersistError`]; recovery treats that as "this snapshot
/// does not exist" and falls back to an older one or a cold boot.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<RecoveredSnapshot, PersistError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 2 {
        return Err(PersistError::Truncated {
            needed: SNAPSHOT_MAGIC.len() + 2,
            available: bytes.len(),
        });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic { format: "snapshot" });
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("len 2"));
    if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_1 {
        return Err(PersistError::BadVersion {
            format: "snapshot",
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let mut r = Reader::new(&bytes[10..]);
    let kb_bytes = read_section(&mut r)?;
    let rule_bytes = read_section(&mut r)?;
    if version == SNAPSHOT_VERSION_1 {
        read_section(&mut r)?;
    }
    let meta_bytes = read_section(&mut r)?;
    r.finish()?;

    let mut kb = decode_kb(kb_bytes)?;
    let rules = decode_rules(rule_bytes, &mut kb.voc)?;
    let mut mr = Reader::new(meta_bytes);
    let last_applied_seq = mr.u64()?;
    let mut warm_users = Vec::new();
    for _ in 0..mr.u32()? {
        warm_users.push(mr.str()?);
    }
    mr.finish()?;

    Ok(RecoveredSnapshot {
        kb,
        rules,
        warm_users,
        last_applied_seq,
    })
}

/// Re-frames a current snapshot as version 1, with `memos` as the
/// evaluation-memo section that version carried between rules and meta.
#[cfg(test)]
pub(crate) fn as_version_1(snapshot: &[u8], memos: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(&snapshot[10..]);
    read_section(&mut r).unwrap(); // KB
    read_section(&mut r).unwrap(); // rules
    let meta_at = snapshot.len() - r.remaining();
    let version = SNAPSHOT_VERSION_1.to_le_bytes();
    let mut out = [SNAPSHOT_MAGIC, &version[..], &snapshot[10..meta_at]].concat();
    put_section(&mut out, memos);
    out.extend_from_slice(&snapshot[meta_at..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use capra_events::Evaluator;

    fn sample_kb() -> Kb {
        let mut kb = Kb::new();
        let u = kb.individual("user");
        let d0 = kb.individual("doc0");
        let d1 = kb.individual("doc1");
        kb.assert_concept_prob(u, "Ctx", 0.37).unwrap();
        kb.assert_concept_prob(d0, "Nice", 0.81).unwrap();
        kb.assert_concept_prob(d0, "Nice", 0.25).unwrap(); // disjoined re-assert
        kb.assert_concept(d1, "Plain");
        kb.assert_role_prob(d0, "hasGenre", d1, 0.5).unwrap();
        let drama = kb.parse("Nice AND EXISTS hasGenre.{doc1}").unwrap();
        let handle = kb.voc.concept("Drama");
        kb.tbox.define(handle, drama, &kb.voc).unwrap();
        kb
    }

    #[test]
    fn kb_round_trips_with_epochs_and_handles() {
        let kb = sample_kb();
        let bytes = encode_kb(&kb);
        let back = decode_kb(&bytes).unwrap();
        assert_eq!(back.epoch(), kb.epoch());
        assert_eq!(back.binding_epoch(), kb.binding_epoch());
        assert_eq!(back.universe.len(), kb.universe.len());
        assert_eq!(back.voc.num_individuals(), kb.voc.num_individuals());
        assert_eq!(back.abox.num_tuples(), kb.abox.num_tuples());
        // Handles re-intern in the same order.
        assert_eq!(
            back.voc.find_individual("doc0"),
            kb.voc.find_individual("doc0")
        );
        // Probabilities round-trip bit-exactly through the reasoner.
        let d0 = back.voc.find_individual("doc0").unwrap();
        let nice = back.voc.find_concept("Nice").unwrap();
        let e_orig = kb.abox.concept_event(d0, nice);
        let e_back = back.abox.concept_event(d0, nice);
        let p_orig = Evaluator::new(&kb.universe).prob(&e_orig);
        let p_back = Evaluator::new(&back.universe).prob(&e_back);
        assert_eq!(p_orig.to_bits(), p_back.to_bits());
    }

    #[test]
    fn rules_round_trip() {
        let mut kb = sample_kb();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R0",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice AND NOT Plain").unwrap(),
                Score::new(0.75).unwrap(),
            ))
            .unwrap();
        let bytes = encode_rules(&rules, &kb.voc);
        let back = decode_rules(&bytes, &mut kb.voc).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.rules()[0], rules.rules()[0]);
    }

    #[test]
    fn corrupt_kb_bytes_error_instead_of_panicking() {
        let kb = sample_kb();
        let bytes = encode_kb(&kb);
        // Truncations at every prefix length must all fail cleanly.
        for cut in 0..bytes.len() {
            if let Ok(back) = decode_kb(&bytes[..cut]) {
                // A prefix that parses fully must at least be *some* KB;
                // it can only happen if trailing data was optional — it
                // is not, so this is a failure.
                panic!("prefix of {cut} bytes decoded to a KB with {} vars", {
                    back.universe.len()
                });
            }
        }
        // Flipping each byte must never panic (errors are fine; a lucky
        // flip that still parses is fine too — CRC guarding happens one
        // level up in the section framing).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = decode_kb(&bad);
        }
    }

    #[test]
    fn corrupt_rule_bytes_error_instead_of_panicking() {
        let mut kb = sample_kb();
        let mut rules = RuleRepository::new();
        rules
            .add(PreferenceRule::new(
                "R0",
                kb.parse("Ctx").unwrap(),
                kb.parse("Nice").unwrap(),
                Score::new(0.5).unwrap(),
            ))
            .unwrap();
        let bytes = encode_rules(&rules, &kb.voc);
        for cut in 0..bytes.len() {
            assert!(decode_rules(&bytes[..cut], &mut kb.voc).is_err());
        }
        // An out-of-range sigma is semantic corruption, not framing.
        let mut bad = bytes.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_rules(&bad, &mut kb.voc),
            Err(PersistError::Invalid(_))
        ));
    }

    #[test]
    fn snapshot_container_detects_bad_magic_version_and_crc() {
        let kb = sample_kb();
        let rules = RuleRepository::new();
        let bytes = encode_snapshot(&kb, &rules, &[], 7);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.last_applied_seq, 7);
        assert_eq!(snap.kb.epoch(), kb.epoch());

        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(PersistError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[8] = 0xFF;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(PersistError::BadVersion { found: 0xFF, .. })
        ));

        // Flip a byte inside the KB section payload: the section CRC
        // catches it before the KB decoder ever runs.
        let mut bad = bytes.clone();
        bad[32] ^= 0x08;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn version_1_snapshot_decodes_and_drops_its_memo_section() {
        let (kb, rules) = (sample_kb(), RuleRepository::new());
        let current = encode_snapshot(&kb, &rules, &["user".to_string()], 11);
        let memos: &[u8] = b"\x07 not a codec payload \xff";
        let v1 = as_version_1(&current, memos);
        // It decodes to the state it was saved from.
        let s = decode_snapshot(&v1).unwrap();
        let again = encode_snapshot(&s.kb, &s.rules, &s.warm_users, s.last_applied_seq);
        assert_eq!(again, current);

        // Dropped, not trusted: the memo section's CRC must still hold.
        let memos_at = 10 + 8 + encode_kb(&kb).len() + 8 + encode_rules(&rules, &kb.voc).len() + 8;
        assert_eq!(&v1[memos_at..memos_at + memos.len()], memos);
        let mut bad = v1.clone();
        bad[memos_at + 3] ^= 0x20;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }
}
