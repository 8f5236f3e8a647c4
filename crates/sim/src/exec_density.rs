//! Circuit + noise → density kernel-op lowering: the compiled front end of
//! the density-matrix engine.
//!
//! The interpreter in [`crate::density`] re-embedded every gate — and every
//! Kraus operator of every noise channel, *inside the per-branch loop* — to
//! a full `2ⁿ × 2ⁿ` matrix and paid two `O(8ⁿ)` dense multiplies per
//! application. [`CompiledDensityProgram::compile`] does the analysis once:
//!
//! * every gate lowers to a [`ConjugationPair`] — a left/right kernel pair
//!   over the row-major vectorization `vec(ρ)` (a `2n`-qubit state vector),
//!   so `X`/`CX` conjugations are pure index permutations and
//!   `Z`/`S`/`T`/`Rz` conjugations are `O(4ⁿ)` phase sweeps;
//! * every noise channel lowers once to a **sum** of conjugation pairs
//!   (`ρ ← Σᵢ KᵢρKᵢ†`), applied per branch with reusable term/accumulator
//!   buffers instead of per-branch re-embedding;
//! * measure/reset lower to precomputed row/column bit masks over `vec(ρ)`;
//! * the leading measurement-free run (gates *and* their noise channels —
//!   density evolution is deterministic, so the whole run is cacheable) is
//!   evolved eagerly at compile time and stored, the density analogue of
//!   [`crate::exec::CompiledProgram`]'s unitary prefix cache. It evolves
//!   over only the qubits an op has touched so far — a qubit no op has
//!   touched is still exactly `|0⟩`, so every `vec(ρ)` entry with its row
//!   or column bit set is an exact zero the full-width sweep would only
//!   carry along — and widens to all `n` qubits once at the end. Prefix
//!   ops are lowered only on that compact register.
//!
//! Lowering consumes no randomness and kernel arithmetic matches the dense
//! walker up to the sign of zero, so compiled runs are bit-for-bit
//! seed-compatible with the legacy interpreter — the contract
//! `tests/density_identity.rs` enforces (see DESIGN.md).

use crate::density::build_channel;
use crate::noise::{KrausChannel, NoiseModel};
use crate::SimError;
use qra_circuit::kernel::{ConjugationPair, KernelClass, PairScratch};
use qra_circuit::{Circuit, Gate, Operation};
use qra_math::{CMatrix, C64};

/// Maximum width of the compiled density engine. `vec(ρ)` holds `4ⁿ`
/// amplitudes (256 MiB at `n = 12`); the former dense-superoperator walker
/// capped at 10, sized for its `O(8ⁿ)` multiplies.
///
/// Deliberately separate from (and lower than) the state-vector ceiling
/// [`crate::exec::MAX_QUBITS`]: a density matrix squares the register, so
/// `n` density qubits cost as much memory as `2n` state-vector qubits.
pub const MAX_QUBITS: usize = 12;

/// Maximum number of classical bits (outcome keys are `u64`).
pub const MAX_CLBITS: usize = 64;

/// The `vec(ρ)` index bits (row **and** column side) addressed by an op on
/// `qubits`: qubit `q` owns row bit `2n−1−q` and column bit `n−1−q`, the
/// same convention as the lowered `Measure`/`Reset` masks.
fn touched_bits(qubits: &[usize], n: usize) -> usize {
    qubits.iter().fold(0usize, |m, &q| {
        m | (1 << (2 * n - 1 - q)) | (1 << (n - 1 - q))
    })
}

/// One lowered instruction of a [`CompiledDensityProgram`].
#[derive(Debug, Clone)]
pub(crate) enum DensityOp {
    /// Apply one conjugation `ρ ← AρA†` in place. `touched` holds the
    /// row/column vectorization index bits the op addresses, so the branch
    /// walker can invalidate support-pattern bits it may repopulate.
    Conjugate {
        pair: ConjugationPair,
        touched: usize,
    },
    /// Apply a Kraus channel `ρ ← Σᵢ KᵢρKᵢ†` (operators in channel order).
    Channel {
        pairs: Vec<ConjugationPair>,
        touched: usize,
    },
    /// Branch on the qubit whose row/column vectorization bits are
    /// `row_mask`/`col_mask`; record into `clbit_bit` of the outcome key
    /// (readout confusion applied from the program's baked-in rates).
    Measure {
        row_mask: usize,
        col_mask: usize,
        clbit_bit: u64,
    },
    /// Project the qubit and fold the `|1⟩` branch back through `flip`
    /// (a lowered X conjugation).
    Reset {
        row_mask: usize,
        col_mask: usize,
        flip: ConjugationPair,
    },
}

impl DensityOp {
    /// The conjugation pairs the op applies (none for a measurement).
    fn pairs(&self) -> &[ConjugationPair] {
        match self {
            DensityOp::Conjugate { pair, .. } => std::slice::from_ref(pair),
            DensityOp::Channel { pairs, .. } => pairs,
            DensityOp::Measure { .. } => &[],
            DensityOp::Reset { flip, .. } => std::slice::from_ref(flip),
        }
    }
}

/// The noise model's Kraus channels, built once per compile; `None` for a
/// zero-probability channel (no op emitted, like the interpreter's
/// `apply_channel_opt` no-op path).
struct Channels {
    depol1: Option<KrausChannel>,
    depol2: Option<KrausChannel>,
    damp1: Option<KrausChannel>,
    damp2: Option<KrausChannel>,
    deph: Option<KrausChannel>,
}

impl Channels {
    fn new(noise: &NoiseModel) -> Result<Channels, SimError> {
        Ok(Channels {
            depol1: build_channel(noise.depol_1q, KrausChannel::depolarizing_1q)?,
            depol2: build_channel(noise.depol_2q, KrausChannel::depolarizing_2q)?,
            damp1: build_channel(noise.damping_1q, KrausChannel::amplitude_damping)?,
            damp2: build_channel(noise.damping_2q, KrausChannel::amplitude_damping)?,
            deph: build_channel(noise.dephasing, KrausChannel::phase_damping)?,
        })
    }
}

/// One instruction or noise site before lowering, on circuit qubits.
enum Step<'a> {
    Gate(&'a Gate, &'a [usize]),
    Channel(&'a [CMatrix], &'a [usize]),
    Measure { qubit: usize, clbit: usize },
    Reset(usize),
}

impl Step<'_> {
    fn qubits(&self) -> &[usize] {
        match self {
            Step::Gate(_, qubits) | Step::Channel(_, qubits) => qubits,
            Step::Measure { qubit, .. } | Step::Reset(qubit) => std::slice::from_ref(qubit),
        }
    }

    /// Lowers the step onto an `n`-qubit register holding circuit qubit
    /// `q` at position `pos[q]`.
    fn lower(&self, n: usize, pos: &[usize]) -> DensityOp {
        let qubits: Vec<usize> = self.qubits().iter().map(|&q| pos[q]).collect();
        let touched = touched_bits(&qubits, n);
        // Measure and reset act on one qubit: `touched` is its bit pair.
        let row_mask = touched & !((1usize << n) - 1);
        let col_mask = touched & ((1usize << n) - 1);
        match self {
            Step::Gate(g, _) => DensityOp::Conjugate {
                pair: ConjugationPair::for_gate(g, &qubits, n),
                touched,
            },
            Step::Channel(operators, _) => DensityOp::Channel {
                pairs: operators
                    .iter()
                    .map(|k| ConjugationPair::lower(k, &qubits, n))
                    .collect(),
                touched,
            },
            Step::Measure { clbit, .. } => DensityOp::Measure {
                row_mask,
                col_mask,
                clbit_bit: 1u64 << clbit,
            },
            Step::Reset(_) => DensityOp::Reset {
                row_mask,
                col_mask,
                flip: ConjugationPair::for_gate(&Gate::X, &qubits, n),
            },
        }
    }
}

/// The circuit's instructions interleaved with their noise sites, in the
/// interpreter's site order exactly: gates wider than two qubits get
/// pairwise two-qubit depolarizing on consecutive qubit pairs.
fn steps<'a>(circuit: &'a Circuit, ch: &'a Channels) -> Vec<Step<'a>> {
    let mut steps = Vec::new();
    let push_channel = |steps: &mut Vec<Step<'a>>, c: &'a Option<KrausChannel>, qs| {
        if let Some(c) = c {
            steps.push(Step::Channel(c.operators(), qs));
        }
    };
    for inst in circuit.instructions() {
        let qs = inst.qubits.as_slice();
        match &inst.operation {
            Operation::Barrier => {}
            Operation::Gate(g) => {
                steps.push(Step::Gate(g, qs));
                if qs.len() == 1 {
                    push_channel(&mut steps, &ch.depol1, qs);
                    push_channel(&mut steps, &ch.damp1, qs);
                    push_channel(&mut steps, &ch.deph, qs);
                } else {
                    for pair in qs.windows(2) {
                        push_channel(&mut steps, &ch.depol2, pair);
                    }
                    for q in qs.chunks(1) {
                        push_channel(&mut steps, &ch.damp2, q);
                        push_channel(&mut steps, &ch.deph, q);
                    }
                }
            }
            Operation::Measure => steps.push(Step::Measure {
                qubit: qs[0],
                clbit: inst.clbits[0],
            }),
            Operation::Reset => steps.push(Step::Reset(qs[0])),
        }
    }
    steps
}

/// A [`Circuit`] + [`NoiseModel`] lowered for repeated exact density
/// evolution.
///
/// Compilation is RNG-free; the same program can be executed any number of
/// times (e.g. once per campaign cell) and by construction produces
/// outcomes bit-for-bit identical to interpreting the original circuit
/// with the same seed.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::{CompiledDensityProgram, DensityMatrixSimulator, DevicePreset};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// bell.measure_all();
/// let noise = DevicePreset::melbourne_like();
/// let program = CompiledDensityProgram::compile(&bell, &noise)?;
/// let sim = DensityMatrixSimulator::with_noise(noise);
/// let counts = sim.run_compiled(&program, 1024, 7)?;
/// assert_eq!(counts.total(), 1024);
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledDensityProgram {
    num_qubits: usize,
    num_clbits: usize,
    /// The ops after the prefix, lowered at full width.
    ops: Vec<DensityOp>,
    /// `vec(ρ)` after the leading measurement-free run, evolved eagerly at
    /// compile time.
    prefix: Vec<C64>,
    prefix_len: usize,
    class_histogram: Vec<(KernelClass, usize)>,
    readout_p01: f64,
    readout_p10: f64,
}

impl CompiledDensityProgram {
    /// Lowers `circuit` with `noise` into density kernel ops and evolves
    /// the measurement-free prefix.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond [`MAX_QUBITS`];
    /// * [`SimError::TooManyClbits`] beyond [`MAX_CLBITS`];
    /// * [`SimError::InvalidNoiseParameter`] for a bad noise model.
    pub fn compile(
        circuit: &Circuit,
        noise: &NoiseModel,
    ) -> Result<CompiledDensityProgram, SimError> {
        noise.validate()?;
        let n = circuit.num_qubits();
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                num_qubits: n,
                max: MAX_QUBITS,
            });
        }
        if circuit.num_clbits() > MAX_CLBITS {
            return Err(SimError::TooManyClbits {
                num_clbits: circuit.num_clbits(),
                max: MAX_CLBITS,
            });
        }

        let channels = Channels::new(noise)?;
        let steps = steps(circuit, &channels);
        let prefix_len = steps
            .iter()
            .position(|s| matches!(s, Step::Measure { .. } | Step::Reset(_)))
            .unwrap_or(steps.len());
        let mut classes = Vec::new();
        let prefix = evolve_prefix(&steps[..prefix_len], n, &mut classes);
        let identity: Vec<usize> = (0..n).collect();
        let ops: Vec<DensityOp> = steps[prefix_len..]
            .iter()
            .map(|s| s.lower(n, &identity))
            .collect();
        classes.extend(
            ops.iter()
                .flat_map(|op| op.pairs().iter().map(|p| p.class())),
        );

        Ok(CompiledDensityProgram {
            num_qubits: n,
            num_clbits: circuit.num_clbits(),
            ops,
            prefix,
            prefix_len,
            class_histogram: KernelClass::histogram(classes),
            readout_p01: noise.readout_p01,
            readout_p10: noise.readout_p10,
        })
    }

    /// Register width in qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Classical register width in bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Density-matrix dimension (`2ⁿ`; `vec(ρ)` holds `dim²` entries).
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Number of lowered ops (gates + channels + measures + resets).
    pub fn op_count(&self) -> usize {
        self.prefix_len + self.ops.len()
    }

    /// Length of the leading measurement-free run cached at compile time.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Histogram of conjugation kernel classes (gates and Kraus operators),
    /// for perf introspection.
    pub fn class_histogram(&self) -> Vec<(KernelClass, usize)> {
        self.class_histogram.clone()
    }

    /// The ops after the prefix.
    pub(crate) fn ops(&self) -> &[DensityOp] {
        &self.ops
    }

    pub(crate) fn prefix(&self) -> &[C64] {
        &self.prefix
    }

    pub(crate) fn readout_p01(&self) -> f64 {
        self.readout_p01
    }

    pub(crate) fn readout_p10(&self) -> f64 {
        self.readout_p10
    }
}

/// Evolves `vec(|0…0⟩⟨0…0|)` through the measurement-free `steps` over
/// only the qubits a step has touched so far, pushing each lowered op's
/// kernel classes onto `classes`, and returns the `n`-qubit `vec(ρ)`.
///
/// The compact register holds the touched circuit qubits in ascending
/// order and starts empty (a 1-entry `vec(ρ)`); a step that touches a new
/// qubit first widens it with that qubit in `|0⟩`. Every entry the compact
/// register leaves out is an exact zero on the full-width path too, and
/// every entry it keeps sees the same operands in the same order, so the
/// result matches the full-width evolution up to the sign of zero.
fn evolve_prefix(steps: &[Step<'_>], n: usize, classes: &mut Vec<KernelClass>) -> Vec<C64> {
    let mut touched: Vec<usize> = Vec::new();
    let mut pos = vec![usize::MAX; n];
    let mut rho = vec![C64::one()];
    let mut scratch = PairScratch::default();
    let mut term = Vec::new();
    let mut acc = Vec::new();
    for step in steps {
        if step.qubits().iter().any(|&q| pos[q] == usize::MAX) {
            let mut wider = touched.clone();
            wider.extend(step.qubits().iter().filter(|&&q| pos[q] == usize::MAX));
            wider.sort_unstable();
            rho = widen(&rho, &touched, &wider);
            touched = wider;
            for (i, &q) in touched.iter().enumerate() {
                pos[q] = i;
            }
        }
        let op = step.lower(touched.len(), &pos);
        classes.extend(op.pairs().iter().map(|p| p.class()));
        match &op {
            DensityOp::Conjugate { pair, .. } => pair.apply(&mut rho, &mut scratch),
            // Compile-time prefix evolution stays single-threaded: it runs
            // once per program, and lowering has no thread configuration
            // (results are identical either way).
            DensityOp::Channel { pairs, .. } => {
                apply_channel_vec(&mut rho, pairs, &mut term, &mut acc, &mut scratch, 1)
            }
            DensityOp::Measure { .. } | DensityOp::Reset { .. } => {
                unreachable!("the prefix ends at the first measure or reset")
            }
        }
    }
    let all: Vec<usize> = (0..n).collect();
    widen(&rho, &touched, &all)
}

/// Re-lays `vec(ρ)` over the ascending qubit list `from` out over the
/// ascending superset `to`, the added qubits in `|0⟩`. On a register
/// listing qubits `L`, `L[j]` owns row bit `2m−1−j` and column bit
/// `m−1−j` (`m = |L|`), as in [`touched_bits`].
fn widen(rho: &[C64], from: &[usize], to: &[usize]) -> Vec<C64> {
    let (m, w) = (from.len(), to.len());
    // spread[h]: a `from` half-index (row or column) as a `to` half-index.
    let spread: Vec<usize> = (0..1usize << m)
        .map(|h| {
            from.iter()
                .enumerate()
                .filter(|&(j, _)| (h >> (m - 1 - j)) & 1 == 1)
                .fold(0, |acc, (_, q)| {
                    let at = to.binary_search(q).expect("`to` covers `from`");
                    acc | (1 << (w - 1 - at))
                })
        })
        .collect();
    let low = (1usize << m) - 1;
    let mut out = vec![C64::zero(); 1 << (2 * w)];
    for (i, &z) in rho.iter().enumerate() {
        out[(spread[i >> m] << w) | spread[i & low]] = z;
    }
    out
}

/// Applies a lowered Kraus channel to `vec_rho` in place:
/// `ρ ← Σᵢ KᵢρKᵢ†` with the terms accumulated in operator order, matching
/// the interpreter's `acc = 0 + K₀ρK₀† + K₁ρK₁† + …` fold bit-for-bit
/// (up to the sign of zero). `term`/`acc` are reusable buffers grown on
/// demand.
pub(crate) fn apply_channel_vec(
    vec_rho: &mut Vec<C64>,
    pairs: &[ConjugationPair],
    term: &mut Vec<C64>,
    acc: &mut Vec<C64>,
    scratch: &mut PairScratch,
    threads: usize,
) {
    let dd = vec_rho.len();
    term.resize(dd, C64::zero());
    acc.clear();
    acc.resize(dd, C64::zero());
    for pair in pairs {
        term.copy_from_slice(vec_rho);
        pair.apply_threaded(term, scratch, threads);
        for (a, t) in acc.iter_mut().zip(term.iter()) {
            *a += *t;
        }
    }
    std::mem::swap(vec_rho, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::DevicePreset;

    #[test]
    fn ideal_circuit_lowers_to_conjugations_only() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let p = CompiledDensityProgram::compile(&c, &NoiseModel::ideal()).unwrap();
        assert_eq!(p.op_count(), 4); // 2 gates + 2 measures, no channels
        assert_eq!(p.prefix_len(), 2);
        assert_eq!(p.dim(), 4);
        // Prefix holds the Bell state's vec(ρ): corners at 0.5.
        let v = p.prefix();
        assert!((v[0].re - 0.5).abs() < 1e-12);
        assert!((v[15].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noisy_gates_emit_channel_ops_in_site_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noise = DevicePreset::melbourne_like();
        let p = CompiledDensityProgram::compile(&c, &noise).unwrap();
        // h: gate + depol1 + damp1 + deph; cx: gate + depol2 + 2×(damp2, deph).
        assert_eq!(p.op_count(), 4 + 6);
        let channels = Channels::new(&noise).unwrap();
        let kinds: Vec<bool> = steps(&c, &channels)
            .iter()
            .map(|s| matches!(s, Step::Channel(..)))
            .collect();
        assert_eq!(
            kinds,
            vec![false, true, true, true, false, true, true, true, true, true]
        );
        // Everything is measurement-free: the whole program is prefix.
        assert_eq!(p.prefix_len(), p.op_count());
        // Trace preserved through the eager prefix evolution.
        let d = p.dim();
        let tr: f64 = (0..d).map(|i| p.prefix()[i * (d + 1)].re).sum();
        assert!((tr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn width_and_clbit_limits_enforced() {
        assert!(matches!(
            CompiledDensityProgram::compile(&Circuit::new(13), &NoiseModel::ideal()),
            Err(SimError::TooManyQubits {
                num_qubits: 13,
                max: 12
            })
        ));
        let mut bad = NoiseModel::ideal();
        bad.depol_1q = 2.0;
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(CompiledDensityProgram::compile(&c, &bad).is_err());
    }

    #[test]
    fn class_histogram_counts_gates_and_kraus_operators() {
        let mut c = Circuit::new(2);
        c.x(0).rz(0.3, 1);
        let mut noise = NoiseModel::ideal();
        noise.dephasing = 0.01; // 2 Kraus operators per 1q gate, all diagonal
        let p = CompiledDensityProgram::compile(&c, &noise).unwrap();
        let hist = p.class_histogram();
        assert!(hist.contains(&(KernelClass::Permutation, 1))); // X
        assert!(hist.contains(&(KernelClass::Diagonal, 1 + 4))); // Rz + 2×K
    }
}
