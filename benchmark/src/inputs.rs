//! Seeded inputs: workload specs derived from the seven preset shapes, and
//! the generated, compiled and laid-out binaries the workloads run.

use crate::report::Spans;
use dvi_core::EdviPlacement;
use dvi_experiments::Binaries;
use dvi_isa::Abi;
use dvi_program::LayoutProgram;
use dvi_workloads::{presets, WorkloadSpec};

/// `main`'s outer loop count. The presets' own counts let five of the seven
/// programs halt after 14k-70k instructions; this many iterations keeps
/// every program running until the capture budget stops it, so each trace
/// holds exactly the budgeted instructions.
const OUTER_ITERATIONS: u32 = 1_000_000;

/// SplitMix64: the seed mixer and the workloads' random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` specs cycling through the preset shapes, each with the workload
/// seed mixed into the preset's own seed, so every seed yields a distinct
/// program set of the same character.
pub fn specs(seed: u64, count: usize) -> Vec<WorkloadSpec> {
    let shapes = presets::all();
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let shape = &shapes[i % shapes.len()];
            WorkloadSpec {
                name: format!("{}-{i}", shape.name),
                seed: shape.seed ^ rng.next_u64(),
                outer_iterations: OUTER_ITERATIONS,
                ..shape.clone()
            }
        })
        .collect()
}

/// Compiles and lays out `program` with E-DVI placed as `edvi`.
fn compile(program: &dvi_program::Program, edvi: EdviPlacement) -> (LayoutProgram, usize) {
    let compiled =
        dvi_compiler::compile(program, &Abi::mips_like(), dvi_compiler::CompileOptions { edvi })
            .expect("generated programs compile");
    let static_instrs = compiled.program.num_instrs();
    (compiled.program.layout().expect("compiled programs lay out"), static_instrs)
}

/// Generates and compiles both binaries of `spec` (the baseline and the
/// E-DVI-annotated one), timing each layer. Equivalent to
/// [`Binaries::build`], split so the traced run sees the generator and the
/// compiler separately.
pub fn build_binaries(spec: &WorkloadSpec, spans: &mut Spans) -> Binaries {
    let bare = spans.time("workloads.generate", || dvi_workloads::generate(spec));
    let (baseline, base_instrs) =
        spans.time("compiler.compile", || compile(&bare, EdviPlacement::None));
    let (edvi, edvi_instrs) =
        spans.time("compiler.compile", || compile(&bare, EdviPlacement::BeforeCalls));
    Binaries { name: spec.name.clone(), baseline, edvi, static_instrs: (base_instrs, edvi_instrs) }
}

/// Generates and compiles only the E-DVI binary of `spec` — the binary the
/// sweep service's preset path times.
pub fn build_edvi(spec: &WorkloadSpec, spans: &mut Spans) -> LayoutProgram {
    let bare = spans.time("workloads.generate", || dvi_workloads::generate(spec));
    spans.time("compiler.compile", || compile(&bare, EdviPlacement::BeforeCalls)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_seeded_and_cover_the_presets() {
        let a = specs(1, 14);
        assert_eq!(a, specs(1, 14), "the same seed gives the same inputs");
        assert_ne!(a[0].seed, specs(2, 14)[0].seed);
        let shapes: Vec<String> = presets::all().into_iter().map(|s| s.name).collect();
        for (i, spec) in a.iter().enumerate() {
            assert!(spec.name.starts_with(&shapes[i % 7]));
            spec.validate();
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
