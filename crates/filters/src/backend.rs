//! Kernel backend selection: scalar reference loops vs kernels shaped
//! for the compiler's auto-vectorizer.
//!
//! There is one build and both backends are in it. The vectorized
//! kernels are what runs unless a caller asks otherwise (`scc-core`'s
//! `KernelChoice` defaults to them). They are plain safe Rust over
//! arrays and slices at the default target, so there is no platform
//! they cannot run on. The scalar loops are the reference the
//! vectorized kernels are tested against, and stay selectable for that.
//! Every vectorized kernel is bit-identical to its scalar twin — the
//! backend is a *speed* knob, never a *pixels* knob (DESIGN.md §15).

/// Which kernel implementation a filter stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelBackend {
    /// The paper-literal per-pixel loops — the reference semantics.
    Scalar,
    /// The vectorized kernels:
    ///
    /// * sepia — 8-pixel blocks: `mix` from per-channel product tables,
    ///   then the formula's float arithmetic with an exact
    ///   round-half-away quantizer, written back as whole words;
    /// * blur — an in-place sliding window: `u16` column sums per byte
    ///   lane, an `(r+1)`-row ring of originals, and one exact
    ///   multiply-shift reciprocal per row (radii up to 7; wider blurs
    ///   run the scalar gather);
    /// * flicker — a per-frame 256-entry lookup table.
    ///
    /// Scratch and vswap are copy/paint kernels already bound by
    /// `memcpy` bandwidth; they run the same code under both backends.
    Simd,
}

impl KernelBackend {
    /// Short name for digests, bench JSON and fuzz-repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Simd.name(), "simd");
    }
}
