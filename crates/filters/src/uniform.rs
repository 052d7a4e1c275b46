//! The block loop shared by the pointwise vectored kernels.
//!
//! The renderer flat-shades every triangle, so most of a rendered frame
//! is runs of one colour: on the benchmark's own frames 85-99.9% of the
//! aligned 8-pixel blocks hold a single RGB, and most of those the same
//! RGB as the uniform block before them. A pointwise kernel maps equal
//! inputs to equal outputs, so such a block needs the kernel once, and a
//! run of such blocks needs it once in all.

use crate::image::BYTES_PER_PIXEL;

/// Pixels per block.
pub(crate) const BLOCK_PIXELS: usize = 8;

const BLOCK_BYTES: usize = BLOCK_PIXELS * BYTES_PER_PIXEL;
const HALF_BYTES: usize = BLOCK_BYTES / 2;

/// The RGB bits of one block half: four little-endian pixel words.
const RGB4: u128 = 0x00FF_FFFF_00FF_FFFF_00FF_FFFF_00FF_FFFF;

/// Times a word, four copies of it across a block half.
const EACH_WORD: u128 = 0x0000_0001_0000_0001_0000_0001_0000_0001;

/// A block as two halves of four little-endian pixel words each.
#[inline(always)]
fn halves(block: &[u8]) -> (u128, u128) {
    let (lo, hi) = block[..BLOCK_BYTES].split_at(HALF_BYTES);
    let word = |half: &[u8]| u128::from_le_bytes(half.try_into().expect("16-byte half"));
    (word(lo), word(hi))
}

/// Whether all eight pixels of the block share one RGB: the first four
/// match each other (a half equal to itself rotated by one pixel) and
/// the last four match the first.
#[inline(always)]
fn is_uniform((lo, hi): (u128, u128)) -> bool {
    let key = lo & RGB4;
    (key ^ key.rotate_left(32)) | (key ^ hi & RGB4) == 0
}

/// Run a pointwise RGB kernel over `bytes` in 8-pixel blocks and return
/// the `< 8`-pixel remainder, which the caller finishes.
///
/// A block whose eight pixels share one RGB is *uniform*: its output is
/// `rgb(key)` (`key` the shared RGB in the low 24 bits of a word, the
/// result's alpha bits zero) with each pixel's own alpha carried through.
/// The last `(key, rgb(key))` pair is remembered across blocks, so a run
/// of uniform blocks of one colour evaluates the kernel once. Any other
/// block goes to `mixed`, which gets the block's 32 bytes.
///
/// The memo lives inside one call and only ever saves work: the output
/// is `mixed`'s and `rgb`'s on every input.
pub(crate) fn per_uniform_block(
    bytes: &mut [u8],
    rgb: impl Fn(u32) -> u32,
    mixed: impl Fn(&mut [u8]),
) -> &mut [u8] {
    let whole = bytes.len() - bytes.len() % BLOCK_BYTES;
    let (body, tail) = bytes.split_at_mut(whole);
    // The last key and output, each four pixel words wide. The sentinel
    // has alpha bits set, which no key has.
    let (mut last_in, mut last_out) = (u128::MAX, 0);
    let mut at = 0;
    while at < whole {
        let (lo, hi) = halves(&body[at..]);
        if !is_uniform((lo, hi)) {
            at = mixed_run(body, at, &mixed);
            continue;
        }
        let key = lo & RGB4;
        if key != last_in {
            last_in = key;
            last_out = u128::from(rgb(key as u32)) * EACH_WORD;
        }
        let (out_lo, out_hi) = body[at..at + BLOCK_BYTES].split_at_mut(HALF_BYTES);
        out_lo.copy_from_slice(&(last_out | lo & !RGB4).to_le_bytes());
        out_hi.copy_from_slice(&(last_out | hi & !RGB4).to_le_bytes());
        at += BLOCK_BYTES;
    }
    tail
}

/// Run `mixed` on the block at `at` and on each block after it up to the
/// next uniform one or the end; return where that is. Out of line, and a
/// loop of its own: on input with no uniform block, against a plain loop
/// over the blocks, sepia's arithmetic inlined into the uniform loop ran
/// up to 2.9× slower and called once per block 1.07-1.13× slower; this
/// loop runs 1.01-1.05× slower.
#[inline(never)]
fn mixed_run(body: &mut [u8], mut at: usize, mixed: &impl Fn(&mut [u8])) -> usize {
    loop {
        mixed(&mut body[at..at + BLOCK_BYTES]);
        at += BLOCK_BYTES;
        if at == body.len() || is_uniform(halves(&body[at..])) {
            return at;
        }
    }
}
