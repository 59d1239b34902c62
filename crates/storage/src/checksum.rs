//! Page checksums: a 4-byte CRC32 trailer at the end of every sealed page.
//!
//! Layout: the last [`CHECKSUM_LEN`] bytes of a page hold the little-endian
//! CRC32 (IEEE polynomial, reflected) of everything before them. The value
//! `0` is reserved as the **unsealed** sentinel — pages that never went
//! through the import or update path (short raw WAL test images, zero
//! padding, pre-checksum databases) verify trivially, so the trailer is
//! backwards-compatible. A computed CRC of `0` is stored as `1`; the CRC
//! still detects every single-bit error, which is what torn/bit-flipped
//! page detection needs.
//!
//! The slotted-page budget (`crates/tree/src/import.rs`, `update.rs`)
//! reserves the trailer bytes, so on cluster pages they are always padding
//! and sealing never clobbers record data.
//!
//! The CRC runs over the whole body on every buffer miss, so its kernel is
//! built for throughput. A single slicing-by-8 register waits on its own
//! table lookups every eight bytes; [`crc32`] instead cuts the input into
//! superblocks of four 2040-byte lanes and advances four registers in one
//! loop, then folds lane `i` into lane `i + 1` by multiplying it by
//! `x^(8·2040) mod P` through four 256-entry shift tables built at compile
//! time (four lookups per fold, no GF(2) arithmetic at run time). What is
//! left after the last superblock goes through one register. One 8 KiB
//! page verifies in about 3 µs against 6.1 µs for one register (median of
//! ten criterion `page_verify/crc32_8k` runs each, 2-vCPU Xeon VM); the
//! output is the same CRC bit for bit, so every sealed page, trailer and
//! WAL frame is unchanged.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Length of the checksum trailer, in bytes.
pub const CHECKSUM_LEN: usize = 4;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Independent CRC registers per superblock.
const LANES: usize = 4;

/// Bytes per lane, a multiple of 8. With four lanes one superblock is
/// 8160 bytes, so an 8 KiB page body (8188 bytes) is one superblock and a
/// 28-byte tail.
const LANE: usize = 2040;

/// Eight-byte words per lane.
const LANE_WORDS: usize = LANE / 8;

/// Bytes per superblock.
const STRIDE: usize = LANES * LANE;

/// Slicing-by-8 tables: `TABLES[k][n]` is the CRC register after feeding
/// byte `n` followed by `k` zero bytes, so one lookup per table folds eight
/// input bytes into the register at once.
static TABLES: [[u32; 256]; 8] = tables();

/// Lane fold tables: `SHIFT[k][n]` is the register `n << 8k` after feeding
/// [`LANE`] zero bytes, i.e. multiplied by `x^(8·LANE) mod P`. Feeding zero
/// bytes is linear in the register, so four lookups (one per register
/// byte) shift a whole register past one lane.
static SHIFT: [[u32; 256]; 4] = shift_tables();

/// Shifts the low byte of `crc` through the polynomial, one bit at a time.
const fn byte_step(crc: u32) -> u32 {
    let mut c = crc & 0xFF;
    let mut bit = 0;
    while bit < 8 {
        c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
        bit += 1;
    }
    c
}

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = byte_step(n as u32);
        let mut k = 0;
        while k < 8 {
            // lint:allow(const evaluation: an out-of-range index fails the build)
            tables[k][n] = crc;
            crc = (crc >> 8) ^ byte_step(crc);
            k += 1;
        }
        n += 1;
    }
    tables
}

const fn shift_tables() -> [[u32; 256]; 4] {
    let [t0, ..] = tables();
    // `basis[b]`: the register `1 << b` after `LANE` zero bytes; every
    // other register's shift is the XOR of the shifts of its set bits.
    let mut basis = [0u32; 32];
    let mut b = 0;
    while b < 32 {
        let mut crc = 1u32 << b;
        let mut i = 0;
        while i < LANE {
            // lint:allow(const evaluation: an out-of-range index fails the build)
            crc = (crc >> 8) ^ t0[(crc & 0xFF) as usize];
            i += 1;
        }
        // lint:allow(const evaluation: an out-of-range index fails the build)
        basis[b] = crc;
        b += 1;
    }
    let mut shift = [[0; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut n = 0;
        while n < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (n >> bit) & 1 == 1 {
                    // lint:allow(const evaluation: an out-of-range index fails the build)
                    shift[k][n] ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            n += 1;
        }
        k += 1;
    }
    shift
}

fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)] // lint:allow(a u8 index is below the table's 256 entries)
}

/// Feeds one eight-byte word into the register `crc` (slicing-by-8).
#[inline(always)]
fn step8(crc: u32, [b0, b1, b2, b3, b4, b5, b6, b7]: [u8; 8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
    lookup(t7, c0)
        ^ lookup(t6, c1)
        ^ lookup(t5, c2)
        ^ lookup(t4, c3)
        ^ lookup(t3, b4)
        ^ lookup(t2, b5)
        ^ lookup(t1, b6)
        ^ lookup(t0, b7)
}

/// Multiplies the register by `x^(8·LANE)`: the register after [`LANE`]
/// zero bytes.
fn shift(crc: u32) -> u32 {
    let [s0, s1, s2, s3] = &SHIFT;
    let [c0, c1, c2, c3] = crc.to_le_bytes();
    lookup(s0, c0) ^ lookup(s1, c1) ^ lookup(s2, c2) ^ lookup(s3, c3)
}

/// Feeds one superblock into the register `crc`: lane 0 continues `crc`,
/// the other lanes start from zero, and all [`LANES`] registers advance in
/// one loop, so the CPU overlaps their table lookups instead of waiting on
/// one dependency chain. Feeding bytes is linear in the register, so the
/// register of lanes `0..=i` is that of lanes `0..i` shifted past one lane,
/// XOR lane `i`'s own register.
#[inline(always)]
fn superblock(crc: u32, block: &[u8; STRIDE]) -> u32 {
    let (words, _) = block.as_chunks::<8>();
    let (lanes, _) = words.as_chunks::<LANE_WORDS>();
    let mut regs: [u32; LANES] = std::array::from_fn(|i| if i == 0 { crc } else { 0 });
    for j in 0..LANE_WORDS {
        for (reg, lane) in regs.iter_mut().zip(lanes) {
            if let Some(&word) = lane.get(j) {
                *reg = step8(*reg, word);
            }
        }
    }
    regs.into_iter()
        .reduce(|acc, reg| shift(acc) ^ reg)
        .unwrap_or(crc)
}

/// Feeds `bytes` into the register `crc` one dependency chain at a time:
/// eight bytes per step, then byte by byte.
fn single_lane(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, rest) = bytes.as_chunks::<8>();
    for &word in words {
        crc = step8(crc, word);
    }
    let [t0, ..] = &TABLES;
    for &b in rest {
        crc = (crc >> 8) ^ lookup(t0, crc as u8 ^ b);
    }
    crc
}

/// CRC32 (IEEE, reflected) over `bytes`. This runs over the full page body
/// on every buffer miss (`verify_page`), so it is on the cold query path as
/// well as on import, commit and WAL recovery.
///
/// The input is cut into superblocks of `LANES` × `LANE` bytes (4 × 2040),
/// each fed through four independent slicing-by-8 registers that the
/// `SHIFT` tables fold into one; whatever is left (all of an input shorter
/// than one superblock) goes through one register. The result is the plain
/// CRC bit for bit, whatever the length. One 8 KiB page costs about 3 µs,
/// half of one register's 6.1 µs; a 2 KiB page, all tail, costs the same
/// 1.5 µs as before (see DESIGN.md, "Checksummed pages").
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<STRIDE>();
    let crc = blocks.iter().fold(!0, superblock);
    !single_lane(crc, tail)
}

/// The CRC a trailer stores for `body`: a computed `0` becomes `1`, so that
/// `0` keeps meaning "unsealed".
fn trailer_crc(body: &[u8]) -> u32 {
    match crc32(body) {
        0 => 1,
        crc => crc,
    }
}

/// Seals a full page image in place: writes the CRC32 of the body into the
/// trailer. The page must be at least [`CHECKSUM_LEN`] bytes and its
/// trailer bytes must be free (callers guarantee this via the import
/// budget). A computed CRC of `0` is stored as `1` to keep `0` meaning
/// "unsealed".
pub fn seal_page(page: &mut [u8]) {
    if let Some((body, trailer)) = page.split_last_chunk_mut::<CHECKSUM_LEN>() {
        *trailer = trailer_crc(body).to_le_bytes();
    }
}

/// Verifies a page image against its trailer. Returns `true` for sealed
/// pages whose CRC matches and for unsealed pages (trailer `0` or pages
/// shorter than the trailer).
pub fn verify_page(page: &[u8]) -> bool {
    let Some((body, trailer)) = page.split_last_chunk::<CHECKSUM_LEN>() else {
        return true;
    };
    let stored = u32::from_le_bytes(*trailer);
    stored == 0 || stored == trailer_crc(body)
}

/// A page image that passed [`verify_page`]. Only [`verify_image`]
/// constructs one, so code that takes a `VerifiedPage` (the buffer's
/// [`PageDecoder`](crate::PageDecoder), and the tree clusters that pin
/// their image to read payloads lazily) can only ever see checked bytes.
/// Cloning shares the image; it never copies it.
#[derive(Clone)]
pub struct VerifiedPage(Arc<[u8]>);

impl Deref for VerifiedPage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for VerifiedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifiedPage({} bytes)", self.0.len())
    }
}

/// Verifies `image` (see [`verify_page`]) and, if it passes, wraps it
/// without copying.
pub fn verify_image(image: Arc<[u8]>) -> Option<VerifiedPage> {
    verify_page(&image).then_some(VerifiedPage(image))
}

/// True if the page carries a (non-zero) checksum trailer.
pub fn is_sealed(page: &[u8]) -> bool {
    page.last_chunk::<CHECKSUM_LEN>()
        .is_some_and(|trailer| *trailer != [0; CHECKSUM_LEN])
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The size of a cluster page.
    const PAGE: usize = 8192;

    /// Feeds one byte into a CRC register bitwise (8 shift/xor rounds).
    fn bitwise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
        crc
    }

    /// The table-free bitwise CRC32: the reference the table-driven,
    /// multi-lane [`crc32`] must match bit for bit, so pages sealed by
    /// either form verify under the other.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |crc, &b| bitwise_step(crc, b))
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc_matches_bitwise_on_every_short_length_and_offset() {
        // Every length up to two superblocks and a partial third word
        // block, so each lane count, fold count and tail length is hit. The
        // oracle runs once per start offset: its register after `len`
        // bytes is the bitwise CRC of that prefix.
        let max = 2 * STRIDE + 64;
        let buf = random_bytes(&mut StdRng::seed_from_u64(7), max + 8);
        for start in [0usize, 1, 3, 5, 7] {
            let mut oracle: u32 = !0;
            for len in 0..=max {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), !oracle, "start {start} len {len}");
                oracle = bitwise_step(oracle, buf[start + len]);
            }
        }
    }

    #[test]
    fn table_crc_matches_bitwise_on_random_pages() {
        // The page sizes of the tests and benchmarks, 2 to 64 KiB, whole
        // and without their trailer.
        let mut rng = StdRng::seed_from_u64(0x5EED_C4C3);
        for size in [2048, 4096, PAGE, 16384, 65536] {
            for _ in 0..3 {
                let page = random_bytes(&mut rng, size);
                assert_eq!(crc32(&page), crc32_bitwise(&page), "{size} bytes");
                let body = &page[..size - CHECKSUM_LEN];
                assert_eq!(crc32(body), crc32_bitwise(body), "{size}-byte body");
            }
        }
    }

    #[test]
    fn shift_tables_equal_feeding_a_lane_of_zero_bytes() {
        for (k, table) in SHIFT.iter().enumerate() {
            for (n, &entry) in table.iter().enumerate() {
                let start = (n as u32) << (8 * k);
                let shifted = (0..LANE).fold(start, |crc, _| bitwise_step(crc, 0));
                assert_eq!(entry, shifted, "SHIFT[{k}][{n}]");
            }
        }
    }

    #[test]
    fn pages_sealed_by_either_crc_verify_under_the_other() {
        let mut rng = StdRng::seed_from_u64(0xC405_5EA1);
        for size in [64, 2048, PAGE, 65536] {
            let mut page = random_bytes(&mut rng, size);
            let (body, trailer) = page.split_last_chunk_mut::<CHECKSUM_LEN>().unwrap();
            let oracle = match crc32_bitwise(body) {
                0 => 1,
                crc => crc,
            };
            // A trailer written by the oracle verifies…
            *trailer = oracle.to_le_bytes();
            assert!(verify_page(&page), "{size}: oracle trailer");
            // …and `seal_page` writes exactly the oracle's trailer.
            page[size - CHECKSUM_LEN..].fill(0);
            seal_page(&mut page);
            assert_eq!(
                page[size - CHECKSUM_LEN..],
                oracle.to_le_bytes(),
                "{size}: sealed"
            );
        }
    }

    #[test]
    fn seal_then_verify_roundtrip() {
        let mut page = vec![0u8; 64];
        page[..4].copy_from_slice(&[9, 8, 7, 6]);
        seal_page(&mut page);
        assert!(is_sealed(&page));
        assert!(verify_page(&page));
    }

    #[test]
    fn any_bit_flip_in_body_is_detected() {
        let mut page = random_bytes(&mut StdRng::seed_from_u64(11), PAGE);
        page[PAGE - CHECKSUM_LEN..].fill(0);
        seal_page(&mut page);
        assert!(verify_page(&page));
        // One bit per body byte, rotating through the bit positions, and
        // the first trailer byte.
        for byte in 0..=PAGE - CHECKSUM_LEN {
            let bit = byte % 8;
            page[byte] ^= 1 << bit;
            assert!(!verify_page(&page), "flip at {byte}.{bit} undetected");
            page[byte] ^= 1 << bit;
        }
    }

    #[test]
    fn unsealed_pages_verify_trivially() {
        assert!(verify_page(&[0u8; 32]));
        assert!(verify_page(&[1, 2, 3])); // shorter than the trailer
        assert!(verify_page(&[]));
        let mut raw = vec![5u8; 16];
        raw[12..].fill(0); // zero trailer = unsealed
        assert!(verify_page(&raw));
        assert!(!is_sealed(&raw));
    }

    #[test]
    fn verify_image_wraps_only_passing_images_without_copying() {
        let mut page = random_bytes(&mut StdRng::seed_from_u64(5), 64);
        seal_page(&mut page);
        let image: Arc<[u8]> = page.into();
        let verified = verify_image(Arc::clone(&image)).unwrap();
        assert!(std::ptr::eq(&*verified, &*image), "the image is shared");
        let mut torn = image.to_vec();
        torn[3] ^= 0x10;
        assert!(verify_image(torn.into()).is_none());
    }

    #[test]
    fn zero_crc_maps_to_one() {
        // Find a body whose CRC is zero is hard; instead check the mapping
        // directly: a sealed page never stores the unsealed sentinel.
        let mut page = vec![0u8; 8];
        seal_page(&mut page);
        assert!(is_sealed(&page));
        assert!(verify_page(&page));
    }
}
