//! Byte-level primitives shared by the snapshot and WAL formats: a
//! little-endian [`Writer`] / [`Reader`] pair, the CRC32 used for all
//! integrity checks, and `[len][crc][payload]` section framing.

use super::PersistError;

/// Slice-by-8 look-up tables for [`crc32`]: `CRC_TABLES[0][b]` is the CRC
/// register after byte `b` alone has been shifted through, `CRC_TABLES[k][b]`
/// the same with `k` zero bytes shifted through behind it.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) over `bytes`, eight
/// bytes per step through [`CRC_TABLES`]. Workload files and snapshots
/// checksum megabytes, where the bit-at-a-time loop was most of the
/// encoding time.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][usize::from(chunk[4])]
            ^ CRC_TABLES[2][usize::from(chunk[5])]
            ^ CRC_TABLES[1][usize::from(chunk[6])]
            ^ CRC_TABLES[0][usize::from(chunk[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Append-only little-endian byte sink. The encode half never fails: it
/// writes into memory and the caller decides where the bytes go.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A float as its raw IEEE-754 bits — round-trips bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A string as `u32` byte length + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source over a borrowed slice. Every
/// read returns `Err(PersistError::Truncated)` instead of panicking when
/// the input is short.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Invalid("string is not valid UTF-8".into()))
    }

    /// Asserts the input was consumed exactly — trailing garbage after a
    /// correctly framed value means the frame length lied.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Invalid(format!(
                "{} trailing byte(s) after the last value",
                self.remaining()
            )))
        }
    }
}

/// Appends a `[u32 len][u32 crc32][payload]` section frame.
pub(crate) fn put_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one section frame, verifying its CRC, and returns the payload.
pub(crate) fn read_section<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    let len = r.u32()? as usize;
    let expected = r.u32()?;
    let payload = r.take(len)?;
    let found = crc32(payload);
    if found != expected {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition the tables are checked against: one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        /// Every length around the eight-byte stride, every alignment of
        /// the tail: files written before the tables must still verify.
        #[test]
        fn crc32_tables_match_the_bitwise_definition(
            bytes in prop::collection::vec(any::<u8>(), 0..70),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 3);
        w.f64(0.1 + 0.2);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_report_truncation_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(PersistError::Truncated {
                needed: 4,
                available: 2
            })
        ));
        // A lying string length is a truncation too.
        let mut w = Writer::new();
        w.u32(100);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn section_framing_detects_corruption() {
        let mut out = Vec::new();
        put_section(&mut out, b"payload");
        let mut ok = Reader::new(&out);
        assert_eq!(read_section(&mut ok).unwrap(), b"payload");
        ok.finish().unwrap();

        let mut flipped = out.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        let mut r = Reader::new(&flipped);
        assert!(matches!(
            read_section(&mut r),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        let mut r = Reader::new(&out[..out.len() - 2]);
        assert!(matches!(
            read_section(&mut r),
            Err(PersistError::Truncated { .. })
        ));
    }
}
