//! Kernel backend selection: scalar reference loops vs the lane-
//! vectorized kernels of [`crate::lanes`].
//!
//! There is one build and both backends are in it. The vectorized
//! kernels are what runs unless a caller asks otherwise
//! ([`KernelBackend::default_backend`]): their lanes are plain
//! `[f32; 8]` arrays, so there is no platform they cannot run on. The
//! scalar loops are the reference the vectorized kernels are tested
//! against, and stay selectable for that. Every vectorized kernel is
//! bit-identical to its scalar twin — the backend is a *speed* knob,
//! never a *pixels* knob (DESIGN.md §15).

/// Which kernel implementation a filter stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelBackend {
    /// The paper-literal per-pixel loops — the reference semantics.
    Scalar,
    /// Lane-vectorized kernels: `[f32; 8]` lane arithmetic for the
    /// float-formula stages (sepia), an exact per-frame lookup table
    /// for flicker, and an exact sliding-window reformulation for blur.
    /// Scratch and vswap are copy/paint kernels already bound by
    /// `memcpy` bandwidth; they run the same code under both backends.
    Simd,
}

impl KernelBackend {
    /// The backend that runs when nothing is requested explicitly: the
    /// vectorized kernels.
    pub fn default_backend() -> KernelBackend {
        KernelBackend::Simd
    }

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
    fn default_backend_is_vectorized() {
        assert_eq!(KernelBackend::default_backend(), KernelBackend::Simd);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Simd.name(), "simd");
    }
}
