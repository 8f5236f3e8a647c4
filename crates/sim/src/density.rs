//! Exact density-matrix simulation with gate-level noise.
//!
//! This back-end substitutes for the real ibmq-melbourne device in the
//! paper's §IX-B: every gate is followed by the configured noise channels,
//! measurement applies a readout confusion matrix, and the full classical
//! joint distribution is computed exactly (then optionally sampled into
//! shot counts). Mid-circuit measurement — required by the Proq baseline —
//! branches the density matrix per outcome.
//!
//! [`DensityMatrixSimulator::run`] (and `evolve`/`outcome_distribution`)
//! lower the circuit through
//! [`CompiledDensityProgram::compile`](crate::exec_density) and execute
//! kernel conjugation pairs on the vectorized `vec(ρ)`; the original
//! dense-matrix instruction walker survives as
//! [`DensityMatrixSimulator::run_interpreted`] (and `*_interpreted`
//! friends) — the reference implementation the compiled engine is tested
//! bit-for-bit against (`tests/density_identity.rs`) and benchmarked over
//! (`qra-bench/src/bin/sim_throughput.rs`).
//!
//! # Branch tolerance
//!
//! Classical branches whose (unnormalised) trace — i.e. outcome
//! probability — is at or below [`NEGLIGIBLE_BRANCH_TRACE`] are dropped,
//! both when coalescing after a measurement and when emitting the final
//! outcome distribution. All channels are trace-preserving, so any branch
//! that survives a coalesce keeps its probability far above the threshold
//! through subsequent gates; using one constant for both cuts (they
//! historically disagreed at `1e-14` vs `1e-15`) therefore never changes a
//! reachable distribution.

use crate::exec_density::{apply_channel_vec, CompiledDensityProgram, DensityOp};
use crate::noise::{KrausChannel, NoiseModel};
use crate::statevector::sample_cumulative;
use crate::threads::resolve_threads;
use crate::{Counts, SimError};
use qra_circuit::gate::embed;
use qra_circuit::kernel::PairScratch;
use qra_circuit::{Circuit, Operation};
use qra_math::{CMatrix, CVector, C64};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Branches with outcome probability (unnormalised trace) at or below this
/// are dropped; see the module docs for why one constant serves both the
/// post-measurement coalesce and the final distribution filter.
pub const NEGLIGIBLE_BRANCH_TRACE: f64 = 1e-14;

/// One classical branch of the interpreted simulation: an (unnormalised)
/// density matrix whose trace is the probability of the recorded outcome
/// bits.
#[derive(Debug, Clone)]
struct Branch {
    rho: CMatrix,
    key: u64,
}

/// One classical branch of the compiled simulation: the `vec(ρ)` entries
/// inside `support`, stored compactly in ascending index order.
#[derive(Debug, Clone)]
struct VecBranch {
    rho: Vec<C64>,
    key: u64,
    support: Support,
}

/// A conservative superset of a branch vector's nonzero support over
/// `vec(ρ)` indices (`2n` bits: row part high, column part low):
///
/// > `{ i : i & mask == vals  ∧  ((i >> n) ^ i) & corr == 0 }`
///
/// i.e. some index bits are *pinned* (`mask`/`vals`, `vals ⊆ mask`) and
/// some qubits are *correlated* (`corr`, a column-bit set: the qubit's row
/// and column bits agree — the diagonal-block structure a measurement
/// leaves behind). Projecting a measurement pins the measured qubit's two
/// bits; coalescing the `0`/`1` projections under readout confusion melts
/// the opposing pins into a correlation via [`Support::union`]. Either way
/// a branch loses at least half its support per measurement, so storing
/// and scanning only the support keeps the post-measurement branch walk
/// near-linear in total instead of `O(branches · 4ⁿ)`.
///
/// Bit-identity: an entry outside a branch's pattern is exactly zero in
/// the full-vector formulation (a fresh zero or the image of zeros under
/// the skipped arithmetic, `±0.0` at worst), and every value the compact
/// walks do compute combines the same operands in the same order as the
/// full scans — so all observable surfaces agree bit-for-bit with the
/// interpreter, up to the sign of zero in the returned density matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Support {
    mask: usize,
    vals: usize,
    corr: usize,
}

impl Support {
    /// The unconstrained pattern (every index potentially nonzero).
    fn full() -> Support {
        Support {
            mask: 0,
            vals: 0,
            corr: 0,
        }
    }

    /// Membership test.
    fn contains(self, i: usize, n: usize) -> bool {
        i & self.mask == self.vals && ((i >> n) ^ i) & self.corr == 0
    }

    /// Pattern with the bits in `both` (one qubit's row+column pair)
    /// pinned all-clear (`set = false`) or all-set (`true`).
    fn pinned(self, both: usize, set: bool) -> Support {
        Support {
            mask: self.mask | both,
            vals: if set {
                self.vals | both
            } else {
                self.vals & !both
            },
            // Pins subsume the correlation for this qubit; keeping `corr`
            // disjoint from pinned pairs keeps `len` exact (`corr` holds
            // only column bits, so masking the pair away suffices).
            corr: self.corr & !both,
        }
    }

    /// Whether any index of the pattern has the `both` bits all `set` /
    /// all clear — i.e. whether the matching projection can be nonzero.
    fn admits(self, both: usize, set: bool) -> bool {
        let pinned = self.mask & both;
        if set {
            pinned & !self.vals == 0
        } else {
            pinned & self.vals == 0
        }
    }

    /// Pattern after an op that may repopulate the `touched` index bits
    /// (always a whole row+column qubit pair).
    fn cleared(self, touched: usize) -> Support {
        let mask = self.mask & !touched;
        Support {
            mask,
            vals: self.vals & mask,
            corr: self.corr & !touched,
        }
    }

    /// The tightest pattern of this shape covering the union: keep the
    /// bits both pin to the same value, and correlate every qubit whose
    /// row/column bits agree within each side (notably, a qubit pinned to
    /// `0` on one side and `1` on the other unions into a correlation —
    /// exactly the readout-confusion coalesce).
    fn union(self, other: Support, n: usize) -> Support {
        let d1 = (1usize << n) - 1;
        let correlated = |s: Support| {
            let pinned_pairs = (s.mask >> n) & s.mask & d1;
            let equal = !((s.vals >> n) ^ s.vals);
            s.corr | (pinned_pairs & equal)
        };
        let mask = self.mask & other.mask & !(self.vals ^ other.vals);
        Support {
            mask,
            vals: self.vals & mask,
            corr: correlated(self) & correlated(other) & !(mask >> n),
        }
    }

    /// Number of indices in the pattern.
    fn len(self, n: usize) -> usize {
        1usize << (2 * n - self.mask.count_ones() as usize - self.corr.count_ones() as usize)
    }

    /// Calls `f(i)` for every index in the pattern, ascending.
    fn for_each(self, n: usize, mut f: impl FnMut(usize)) {
        // Free coordinates, most significant first: plain free bits and
        // correlated row/column pairs (which move as one). A coordinate's
        // value exceeds the sum of all lower coordinates' values, so the
        // 0-branch-first recursion below enumerates ascending.
        let mut coords = Vec::with_capacity(2 * n);
        for b in (0..2 * n).rev() {
            let bit = 1usize << b;
            if self.mask & bit != 0 {
                continue;
            }
            if b >= n {
                let col = bit >> n;
                coords.push(if self.corr & col != 0 { bit | col } else { bit });
            } else if self.corr & bit == 0 {
                coords.push(bit);
            }
        }
        fn walk(coords: &[usize], base: usize, f: &mut impl FnMut(usize)) {
            match coords.split_first() {
                None => f(base),
                Some((&c, rest)) => {
                    walk(rest, base, f);
                    walk(rest, base | c, f);
                }
            }
        }
        walk(&coords, self.vals, &mut f);
    }
}

/// An exact density-matrix simulator with optional noise.
///
/// ```rust
/// use qra_circuit::Circuit;
/// use qra_sim::{DensityMatrixSimulator, DevicePreset};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// bell.measure_all();
/// let sim = DensityMatrixSimulator::with_noise(DevicePreset::melbourne_like());
/// let dist = sim.outcome_distribution(&bell)?;
/// let p_00 = dist.iter().find(|(k, _)| *k == 0).map(|(_, p)| *p).unwrap();
/// assert!(p_00 > 0.35 && p_00 < 0.5); // noise pushes it below the ideal 0.5
/// # Ok::<(), qra_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DensityMatrixSimulator {
    noise: NoiseModel,
    threads: usize,
}

impl Default for DensityMatrixSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl DensityMatrixSimulator {
    /// Creates a noiseless density-matrix simulator.
    pub fn new() -> Self {
        Self {
            noise: NoiseModel::ideal(),
            threads: 1,
        }
    }

    /// Creates a simulator with the given noise model.
    pub fn with_noise(noise: NoiseModel) -> Self {
        Self { noise, threads: 1 }
    }

    /// Sets the amplitude-level worker thread count for the compiled
    /// branch walk (`0` = one per available core). Threading re-partitions
    /// kernel sweeps whose per-amplitude arithmetic is unchanged, so every
    /// result is bit-for-bit identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads).0;
        self
    }

    /// The resolved amplitude-level thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Lowers `circuit` with this simulator's noise model; callers
    /// amortizing one circuit over many runs (e.g. a campaign cell)
    /// compile once and use [`DensityMatrixSimulator::run_compiled`].
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond
    ///   [`crate::exec_density::MAX_QUBITS`];
    /// * [`SimError::InvalidNoiseParameter`] for a bad noise model.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledDensityProgram, SimError> {
        CompiledDensityProgram::compile(circuit, &self.noise)
    }

    /// Evolves `|0…0⟩⟨0…0|` through the circuit and returns the final
    /// density matrix. Measurements dephase-and-branch internally; the
    /// returned matrix is the branch-summed (averaged) state.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooManyQubits`] beyond 12 qubits;
    /// * [`SimError::InvalidNoiseParameter`] for a bad noise model.
    pub fn evolve(&self, circuit: &Circuit) -> Result<CMatrix, SimError> {
        let program = self.compile(circuit)?;
        self.evolve_compiled(&program)
    }

    /// Computes the exact joint distribution over the classical bits:
    /// a list of `(key, probability)` with non-negligible probability
    /// (above [`NEGLIGIBLE_BRANCH_TRACE`]), where bit `c` of `key` is
    /// classical bit `c`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DensityMatrixSimulator::evolve`].
    pub fn outcome_distribution(&self, circuit: &Circuit) -> Result<Vec<(u64, f64)>, SimError> {
        let program = self.compile(circuit)?;
        self.outcome_distribution_compiled(&program)
    }

    /// Samples `shots` outcomes from the exact distribution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DensityMatrixSimulator::evolve`].
    pub fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, SimError> {
        let program = self.compile(circuit)?;
        self.run_compiled(&program, shots, seed)
    }

    /// [`DensityMatrixSimulator::evolve`] over a pre-lowered program (whose
    /// baked-in noise model governs, not this simulator's).
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for parity with the interpreted path.
    pub fn evolve_compiled(&self, program: &CompiledDensityProgram) -> Result<CMatrix, SimError> {
        let branches = run_vec_branches(program, self.threads);
        let d = program.dim();
        let n = d.trailing_zeros() as usize;
        let mut acc = vec![C64::zero(); d * d];
        for b in &branches {
            let mut pos = 0;
            b.support.for_each(n, |i| {
                acc[i] += b.rho[pos];
                pos += 1;
            });
        }
        Ok(CMatrix::new(d, d, acc))
    }

    /// [`DensityMatrixSimulator::outcome_distribution`] over a pre-lowered
    /// program.
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for parity with the interpreted path.
    pub fn outcome_distribution_compiled(
        &self,
        program: &CompiledDensityProgram,
    ) -> Result<Vec<(u64, f64)>, SimError> {
        let branches = run_vec_branches(program, self.threads);
        let n = program.dim().trailing_zeros() as usize;
        let mut table: BTreeMap<u64, f64> = BTreeMap::new();
        for b in &branches {
            let p = trace_compact(&b.rho, b.support, n).re;
            if p > NEGLIGIBLE_BRANCH_TRACE {
                *table.entry(b.key).or_insert(0.0) += p;
            }
        }
        Ok(table.into_iter().collect())
    }

    /// [`DensityMatrixSimulator::run`] over a pre-lowered program:
    /// computes the exact distribution once, then samples it through a
    /// cumulative-table binary search (`O(log |dist|)` per shot, same RNG
    /// draw sequence as the interpreted linear scan). An empty or
    /// zero-mass distribution — unreachable for trace-preserving programs
    /// — records the all-zeros outcome for every shot instead of sampling.
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for parity with the interpreted path.
    pub fn run_compiled(
        &self,
        program: &CompiledDensityProgram,
        shots: u64,
        seed: u64,
    ) -> Result<Counts, SimError> {
        let dist = self.outcome_distribution_compiled(program)?;
        let mut counts = Counts::new(program.num_clbits());
        // In-place cumulative table: cum[i] = p₀ + … + pᵢ with the same
        // left-to-right association as `iter().sum()`, so the total is
        // bit-identical to the interpreter's.
        let mut cum: Vec<f64> = dist.iter().map(|&(_, p)| p).collect();
        for i in 1..cum.len() {
            cum[i] += cum[i - 1];
        }
        let total = cum.last().copied().unwrap_or(0.0);
        if total > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hist = vec![0u64; dist.len()];
            for _ in 0..shots {
                hist[sample_cumulative(&cum, total, &mut rng)] += 1;
            }
            for (i, &h) in hist.iter().enumerate() {
                if h > 0 {
                    counts.record(dist[i].0, h);
                }
            }
        } else if shots > 0 {
            counts.record(0, shots);
        }
        Ok(counts)
    }

    /// [`DensityMatrixSimulator::evolve`] through the original dense-matrix
    /// instruction walker. Kept as the reference implementation for the
    /// compiled-vs-interpreter identity tests and throughput baselines.
    ///
    /// # Errors
    ///
    /// As for [`DensityMatrixSimulator::evolve`].
    pub fn evolve_interpreted(&self, circuit: &Circuit) -> Result<CMatrix, SimError> {
        let branches = self.run_branches(circuit)?;
        let dim = 1usize << circuit.num_qubits();
        let mut rho = CMatrix::zeros(dim, dim);
        for b in branches {
            rho = rho.add(&b.rho)?;
        }
        Ok(rho)
    }

    /// [`DensityMatrixSimulator::outcome_distribution`] through the
    /// original dense-matrix instruction walker.
    ///
    /// # Errors
    ///
    /// As for [`DensityMatrixSimulator::evolve`].
    pub fn outcome_distribution_interpreted(
        &self,
        circuit: &Circuit,
    ) -> Result<Vec<(u64, f64)>, SimError> {
        let branches = self.run_branches(circuit)?;
        let mut table: BTreeMap<u64, f64> = BTreeMap::new();
        for b in branches {
            let p = b.rho.trace()?.re;
            if p > NEGLIGIBLE_BRANCH_TRACE {
                *table.entry(b.key).or_insert(0.0) += p;
            }
        }
        Ok(table.into_iter().collect())
    }

    /// [`DensityMatrixSimulator::run`] through the original dense-matrix
    /// instruction walker, including its linear-scan shot sampler; same
    /// seed ⇒ same [`Counts`] as the compiled path.
    ///
    /// # Errors
    ///
    /// As for [`DensityMatrixSimulator::evolve`].
    pub fn run_interpreted(
        &self,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<Counts, SimError> {
        let dist = self.outcome_distribution_interpreted(circuit)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = Counts::new(circuit.num_clbits());
        let total: f64 = dist.iter().map(|(_, p)| *p).sum();
        use rand::Rng;
        for _ in 0..shots {
            let mut r = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut chosen = dist.last().map(|(k, _)| *k).unwrap_or(0);
            for &(k, p) in &dist {
                if r < p {
                    chosen = k;
                    break;
                }
                r -= p;
            }
            counts.record(chosen, 1);
        }
        Ok(counts)
    }

    fn run_branches(&self, circuit: &Circuit) -> Result<Vec<Branch>, SimError> {
        self.noise.validate()?;
        let n = circuit.num_qubits();
        if n > crate::exec_density::MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                num_qubits: n,
                max: crate::exec_density::MAX_QUBITS,
            });
        }
        if circuit.num_clbits() > crate::exec_density::MAX_CLBITS {
            return Err(SimError::TooManyClbits {
                num_clbits: circuit.num_clbits(),
                max: crate::exec_density::MAX_CLBITS,
            });
        }
        let dim = 1usize << n;
        let zero = CVector::basis_state(dim, 0);
        let mut branches = vec![Branch {
            rho: CMatrix::outer(&zero, &zero),
            key: 0,
        }];

        // Pre-build noise channels once.
        let depol1 = build_channel(self.noise.depol_1q, KrausChannel::depolarizing_1q)?;
        let depol2 = build_channel(self.noise.depol_2q, KrausChannel::depolarizing_2q)?;
        let damp1 = build_channel(self.noise.damping_1q, KrausChannel::amplitude_damping)?;
        let damp2 = build_channel(self.noise.damping_2q, KrausChannel::amplitude_damping)?;
        let deph = build_channel(self.noise.dephasing, KrausChannel::phase_damping)?;

        for inst in circuit.instructions() {
            match &inst.operation {
                Operation::Barrier => {}
                Operation::Gate(g) => {
                    let full = embed(&g.matrix(), &inst.qubits, n);
                    let full_dg = full.adjoint();
                    for b in &mut branches {
                        b.rho = full.mul(&b.rho)?.mul(&full_dg)?;
                    }
                    // Gate-dependent noise. Gates wider than two qubits get
                    // pairwise two-qubit depolarizing on consecutive qubit
                    // pairs, mirroring their hardware transpilation into
                    // two-qubit primitives.
                    if inst.qubits.len() == 1 {
                        apply_channel_opt(&mut branches, &depol1, &[inst.qubits[0]], n)?;
                        apply_channel_opt(&mut branches, &damp1, &[inst.qubits[0]], n)?;
                        apply_channel_opt(&mut branches, &deph, &[inst.qubits[0]], n)?;
                    } else {
                        for pair in inst.qubits.windows(2) {
                            apply_channel_opt(&mut branches, &depol2, pair, n)?;
                        }
                        for &q in &inst.qubits {
                            apply_channel_opt(&mut branches, &damp2, &[q], n)?;
                            apply_channel_opt(&mut branches, &deph, &[q], n)?;
                        }
                    }
                }
                Operation::Measure => {
                    let q = inst.qubits[0];
                    let c = inst.clbits[0];
                    let mut next = Vec::with_capacity(branches.len() * 2);
                    for b in &branches {
                        let (rho0, rho1) = project(&b.rho, q, n);
                        // Readout confusion: recorded bit may flip.
                        let p01 = self.noise.readout_p01;
                        let p10 = self.noise.readout_p10;
                        // True 0 branch.
                        push_branch(
                            &mut next,
                            rho0.scale(C64::from(1.0 - p01)),
                            b.key & !(1 << c),
                        );
                        push_branch(&mut next, rho0.scale(C64::from(p01)), b.key | (1 << c));
                        // True 1 branch.
                        push_branch(
                            &mut next,
                            rho1.scale(C64::from(1.0 - p10)),
                            b.key | (1 << c),
                        );
                        push_branch(&mut next, rho1.scale(C64::from(p10)), b.key & !(1 << c));
                    }
                    branches = coalesce(next)?;
                }
                Operation::Reset => {
                    let q = inst.qubits[0];
                    // |1⟩ branch flips back to |0⟩: X ρ1 X. Embedded once
                    // per instruction, not per branch.
                    let x = embed(&qra_circuit::Gate::X.matrix(), &[q], n);
                    for b in &mut branches {
                        let (rho0, rho1) = project(&b.rho, q, n);
                        let flipped = x.mul(&rho1)?.mul(&x)?;
                        b.rho = rho0.add(&flipped)?;
                    }
                }
            }
        }
        Ok(branches)
    }
}

/// Executes a compiled program's branch walk over compact `vec(ρ)`
/// branches, mirroring [`DensityMatrixSimulator::run_branches`] op for op
/// (same branch push order, same coalesce semantics) so results stay
/// bit-for-bit identical up to the sign of zero. Branch storage is
/// support-compact (see [`Support`]): projections are sequential splits,
/// coalesce merges are ordered interleave walks, and per-branch cost
/// shrinks geometrically with each measurement instead of staying `O(4ⁿ)`.
fn run_vec_branches(program: &CompiledDensityProgram, threads: usize) -> Vec<VecBranch> {
    let d = program.dim();
    let dd = d * d;
    let n = d.trailing_zeros() as usize;
    let p01 = program.readout_p01();
    let p10 = program.readout_p10();
    let mut branches = vec![VecBranch {
        rho: program.prefix().to_vec(),
        key: 0,
        support: Support::full(),
    }];
    let mut scratch = PairScratch::default();
    let mut term = Vec::new();
    let mut acc = Vec::new();
    // Kernels need positional `vec(ρ)` access, so compact post-measurement
    // branches are staged through one shared full-size buffer (allocated
    // lazily: terminal-measurement programs never need it). Invariant: the
    // stage is zero (up to the sign of zero) outside the support pattern
    // currently checked in, restored after each use by re-zeroing only the
    // pattern of what the kernel produced.
    let mut stage: Option<Vec<C64>> = None;
    for op in program.ops() {
        match op {
            DensityOp::Conjugate { pair, touched } => {
                for b in &mut branches {
                    if b.support == Support::full() {
                        pair.apply_threaded(&mut b.rho, &mut scratch, threads);
                    } else {
                        let stage = stage.get_or_insert_with(|| vec![C64::zero(); dd]);
                        expand(&b.rho, b.support, n, stage);
                        pair.apply_threaded(stage, &mut scratch, threads);
                        let support = b.support.cleared(*touched);
                        b.rho = compress_and_zero(stage, support, n);
                        b.support = support;
                    }
                }
            }
            DensityOp::Channel { pairs, touched } => {
                for b in &mut branches {
                    if b.support == Support::full() {
                        apply_channel_vec(
                            &mut b.rho,
                            pairs,
                            &mut term,
                            &mut acc,
                            &mut scratch,
                            threads,
                        );
                    } else {
                        let stage = stage.get_or_insert_with(|| vec![C64::zero(); dd]);
                        expand(&b.rho, b.support, n, stage);
                        apply_channel_vec(stage, pairs, &mut term, &mut acc, &mut scratch, threads);
                        let support = b.support.cleared(*touched);
                        b.rho = compress_and_zero(stage, support, n);
                        b.support = support;
                    }
                }
            }
            DensityOp::Measure {
                row_mask,
                col_mask,
                clbit_bit,
            } => {
                // Streaming coalesce: branches are pushed in the same
                // global order the interpreter builds its pre-coalesce
                // list, so per-key accumulation order is identical.
                let mut map: BTreeMap<u64, (Vec<C64>, Support)> = BTreeMap::new();
                let both = row_mask | col_mask;
                for b in std::mem::take(&mut branches) {
                    let (rho0, rho1) = project_compact(&b.rho, b.support, both, n);
                    if b.support.admits(both, false) {
                        let s0 = b.support.pinned(both, false);
                        push_scaled(&mut map, &rho0, s0, 1.0 - p01, b.key & !clbit_bit, n);
                        push_scaled(&mut map, &rho0, s0, p01, b.key | clbit_bit, n);
                    }
                    if b.support.admits(both, true) {
                        let s1 = b.support.pinned(both, true);
                        push_scaled(&mut map, &rho1, s1, 1.0 - p10, b.key | clbit_bit, n);
                        push_scaled(&mut map, &rho1, s1, p10, b.key & !clbit_bit, n);
                    }
                }
                branches = map
                    .into_iter()
                    .map(|(key, (rho, support))| VecBranch { rho, key, support })
                    .collect();
            }
            DensityOp::Reset {
                row_mask,
                col_mask,
                flip,
            } => {
                for b in &mut branches {
                    let both = row_mask | col_mask;
                    let (rho0, rho1) = project_compact(&b.rho, b.support, both, n);
                    // After the X fold the |1⟩ piece occupies the same
                    // pinned-to-zero pattern as the |0⟩ piece.
                    let s0 = b.support.pinned(both, false);
                    if !b.support.admits(both, true) {
                        // The |1⟩ projection is empty; the fold with its
                        // exact zeros is the identity on `rho0`.
                        b.rho = rho0;
                        b.support = s0;
                        continue;
                    }
                    let s1 = b.support.pinned(both, true);
                    let stage = stage.get_or_insert_with(|| vec![C64::zero(); dd]);
                    expand(&rho1, s1, n, stage);
                    flip.apply_threaded(stage, &mut scratch, threads);
                    let mut folded = Vec::with_capacity(s0.len(n));
                    if b.support.admits(both, false) {
                        let mut pos = 0;
                        s0.for_each(n, |i| {
                            folded.push(rho0[pos] + stage[i]);
                            pos += 1;
                            stage[i] = C64::zero();
                        });
                    } else {
                        // The |0⟩ projection is empty: folding its exact
                        // zeros in changes at most the sign of zero.
                        s0.for_each(n, |i| {
                            folded.push(stage[i]);
                            stage[i] = C64::zero();
                        });
                    }
                    b.rho = folded;
                    b.support = s0;
                }
            }
        }
    }
    branches
}

/// Trace of a compact branch: the diagonal entries of `vec(ρ)` inside the
/// pattern, folded in the same ascending order as [`CMatrix::trace`] — the
/// skipped off-support diagonal entries contribute exact zeros there.
fn trace_compact(rho: &[C64], support: Support, n: usize) -> C64 {
    let d1 = (1usize << n) - 1;
    let mut tr = C64::zero();
    let mut pos = 0;
    support.for_each(n, |i| {
        if (i >> n) == (i & d1) {
            tr += rho[pos];
        }
        pos += 1;
    });
    tr
}

/// Scatters a compact branch into the full-size staging buffer (which must
/// be zero outside `support` up to the sign of zero).
fn expand(rho: &[C64], support: Support, n: usize, stage: &mut [C64]) {
    let mut pos = 0;
    support.for_each(n, |i| {
        stage[i] = rho[pos];
        pos += 1;
    });
}

/// Gathers `support`'s entries out of the staging buffer into a fresh
/// compact branch, re-zeroing them so the stage is all-zero-class again
/// (a kernel's output is exactly zero-class outside its output pattern).
fn compress_and_zero(stage: &mut [C64], support: Support, n: usize) -> Vec<C64> {
    let mut out = Vec::with_capacity(support.len(n));
    support.for_each(n, |i| {
        out.push(stage[i]);
        stage[i] = C64::zero();
    });
    out
}

/// Splits a compact branch into the (unnormalised) post-measurement pieces
/// for outcomes 0 and 1: entries whose row *and* column bits (`both`) are
/// clear go to `rho0`, both-set to `rho1`, cross terms vanish. The pieces
/// are compact over `support.pinned(both, false/true)` — sub-patterns of
/// `support`, so the ascending walk emits them in enumeration order.
fn project_compact(rho: &[C64], support: Support, both: usize, n: usize) -> (Vec<C64>, Vec<C64>) {
    let mut rho0 = Vec::new();
    let mut rho1 = Vec::new();
    let mut pos = 0;
    support.for_each(n, |i| {
        let m = i & both;
        if m == 0 {
            rho0.push(rho[pos]);
        } else if m == both {
            rho1.push(rho[pos]);
        }
        pos += 1;
    });
    (rho0, rho1)
}

/// Scales a projected compact branch by readout probability `p` and merges
/// it into the coalesce map under `key`, dropping it when its trace is
/// negligible — the streaming equivalent of the interpreter's
/// push-then-[`coalesce`] (trace of the scaled branch computed first, so
/// dropped branches never materialize). A merge re-lays both operands out
/// over their pattern union via one ordered interleave walk; an index only
/// one side populates keeps/takes that side's value exactly (the other
/// side's contribution is an exact zero there).
fn push_scaled(
    map: &mut BTreeMap<u64, (Vec<C64>, Support)>,
    rho: &[C64],
    support: Support,
    p: f64,
    key: u64,
    n: usize,
) {
    if p == 0.0 {
        // The scaled trace would be exactly ±0 — below the threshold.
        return;
    }
    let factor = C64::from(p);
    // Same diagonal fold as the interpreter's trace: ascending, with
    // off-support diagonal entries contributing exact zeros.
    let d1 = (1usize << n) - 1;
    let mut tr = C64::zero();
    let mut pos = 0;
    support.for_each(n, |i| {
        if (i >> n) == (i & d1) {
            tr += rho[pos] * factor;
        }
        pos += 1;
    });
    if tr.re <= NEGLIGIBLE_BRANCH_TRACE {
        return;
    }
    match map.remove(&key) {
        Some((existing, existing_support)) => {
            let union = existing_support.union(support, n);
            let mut merged = Vec::with_capacity(union.len(n));
            let (mut pe, mut pi) = (0usize, 0usize);
            union.for_each(n, |i| {
                let mut v = if existing_support.contains(i, n) {
                    let x = existing[pe];
                    pe += 1;
                    x
                } else {
                    C64::zero()
                };
                if support.contains(i, n) {
                    v += rho[pi] * factor;
                    pi += 1;
                }
                merged.push(v);
            });
            map.insert(key, (merged, union));
        }
        None => {
            let scaled = rho.iter().map(|&z| z * factor).collect();
            map.insert(key, (scaled, support));
        }
    }
}

type ChannelCtor = fn(f64) -> Result<KrausChannel, SimError>;

pub(crate) fn build_channel(p: f64, ctor: ChannelCtor) -> Result<Option<KrausChannel>, SimError> {
    if p <= 0.0 {
        Ok(None)
    } else {
        ctor(p).map(Some)
    }
}

fn apply_channel_opt(
    branches: &mut [Branch],
    channel: &Option<KrausChannel>,
    qubits: &[usize],
    n: usize,
) -> Result<(), SimError> {
    let Some(ch) = channel else { return Ok(()) };
    // Two-qubit channels expect 4x4 operators; single expect 2x2.
    let expect_dim = 1usize << qubits.len();
    // Embed every Kraus operator once per instruction, not per branch.
    let embedded: Vec<(CMatrix, CMatrix)> = ch
        .operators()
        .iter()
        .map(|k| {
            debug_assert_eq!(k.rows(), expect_dim);
            let full = embed(k, qubits, n);
            let full_dg = full.adjoint();
            (full, full_dg)
        })
        .collect();
    for b in branches.iter_mut() {
        let mut acc = CMatrix::zeros(b.rho.rows(), b.rho.cols());
        for (full, full_dg) in &embedded {
            let term = full.mul(&b.rho)?.mul(full_dg)?;
            acc = acc.add(&term)?;
        }
        b.rho = acc;
    }
    Ok(())
}

/// Splits ρ into the (unnormalised) post-measurement pieces for outcomes
/// 0 and 1 of `qubit`.
fn project(rho: &CMatrix, qubit: usize, n: usize) -> (CMatrix, CMatrix) {
    let dim = rho.rows();
    let mask = 1usize << (n - 1 - qubit);
    let mut rho0 = CMatrix::zeros(dim, dim);
    let mut rho1 = CMatrix::zeros(dim, dim);
    for r in 0..dim {
        for c in 0..dim {
            let (rb, cb) = (r & mask != 0, c & mask != 0);
            if !rb && !cb {
                rho0.set(r, c, rho.get(r, c));
            } else if rb && cb {
                rho1.set(r, c, rho.get(r, c));
            }
        }
    }
    (rho0, rho1)
}

fn push_branch(list: &mut Vec<Branch>, rho: CMatrix, key: u64) {
    list.push(Branch { rho, key });
}

/// Merges branches with identical classical keys (their density matrices
/// add) and drops negligible ones, bounding the branch count by the number
/// of distinct classical outcomes.
fn coalesce(branches: Vec<Branch>) -> Result<Vec<Branch>, SimError> {
    let mut map: BTreeMap<u64, CMatrix> = BTreeMap::new();
    for b in branches {
        let tr = b.rho.trace()?.re;
        if tr <= NEGLIGIBLE_BRANCH_TRACE {
            continue;
        }
        match map.remove(&b.key) {
            Some(existing) => {
                map.insert(b.key, existing.add(&b.rho)?);
            }
            None => {
                map.insert(b.key, b.rho);
            }
        }
    }
    Ok(map
        .into_iter()
        .map(|(key, rho)| Branch { rho, key })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::DevicePreset;

    const TOL: f64 = 1e-9;

    #[test]
    fn noiseless_bell_matches_statevector() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let rho = DensityMatrixSimulator::new().evolve(&c).unwrap();
        let sv = c.statevector().unwrap();
        let expect = CMatrix::outer(&sv, &sv);
        assert!(rho.approx_eq(&expect, TOL));
        assert!((rho.purity().unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut noise = NoiseModel::ideal();
        noise.depol_2q = 0.1;
        let rho = DensityMatrixSimulator::with_noise(noise)
            .evolve(&c)
            .unwrap();
        assert!((rho.trace().unwrap().re - 1.0).abs() < TOL);
        assert!(rho.purity().unwrap() < 0.99);
    }

    #[test]
    fn outcome_distribution_is_normalized() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.measure_all();
        let sim = DensityMatrixSimulator::with_noise(DevicePreset::melbourne_like());
        let dist = sim.outcome_distribution(&c).unwrap();
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Noise leaks probability into the odd-parity outcomes.
        let leak: f64 = dist
            .iter()
            .filter(|(k, _)| k.count_ones() == 1)
            .map(|(_, p)| p)
            .sum();
        assert!(leak > 0.001, "expected some leakage, got {leak}");
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut c = Circuit::new(1);
        c.x(0);
        c.measure_all();
        let mut noise = NoiseModel::ideal();
        noise.readout_p10 = 0.25;
        let sim = DensityMatrixSimulator::with_noise(noise);
        let dist = sim.outcome_distribution(&c).unwrap();
        let p0 = dist.iter().find(|(k, _)| *k == 0).map(|(_, p)| *p).unwrap();
        assert!((p0 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mid_circuit_measurement_branches() {
        // H, measure, H, measure — all four outcomes at 1/4 exactly.
        let mut c = Circuit::with_clbits(1, 2);
        c.h(0);
        c.measure(0, 0).unwrap();
        c.h(0);
        c.measure(0, 1).unwrap();
        let dist = DensityMatrixSimulator::new()
            .outcome_distribution(&c)
            .unwrap();
        assert_eq!(dist.len(), 4);
        for (_, p) in dist {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn measurement_destroys_coherence() {
        // Measuring |+⟩ leaves the maximally mixed state.
        let mut c = Circuit::with_clbits(1, 1);
        c.h(0);
        c.measure(0, 0).unwrap();
        let rho = DensityMatrixSimulator::new().evolve(&c).unwrap();
        let mixed = CMatrix::identity(2).scale(C64::from(0.5));
        assert!(rho.approx_eq(&mixed, TOL));
    }

    #[test]
    fn reset_produces_ground_state() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.reset(0).unwrap();
        let rho = DensityMatrixSimulator::new().evolve(&c).unwrap();
        let zero = CVector::basis_state(2, 0);
        assert!(rho.approx_eq(&CMatrix::outer(&zero, &zero), TOL));
    }

    #[test]
    fn run_sampling_matches_distribution() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure_all();
        let sim = DensityMatrixSimulator::new();
        let counts = sim.run(&c, 8192, 13).unwrap();
        assert!((counts.frequency("0").unwrap() - 0.5).abs() < 0.03);
    }

    #[test]
    fn run_on_unmeasured_circuit_yields_all_zero_key() {
        // No measurements: the single branch has key 0 and full trace, so
        // every shot records the all-zeros outcome (one RNG draw each).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let counts = DensityMatrixSimulator::new().run(&c, 64, 5).unwrap();
        assert_eq!(counts.total(), 64);
        assert_eq!(counts.count(0), 64);
    }

    #[test]
    fn too_wide_rejected() {
        let c = Circuit::new(13);
        assert!(matches!(
            DensityMatrixSimulator::new().evolve(&c),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(matches!(
            DensityMatrixSimulator::new().evolve_interpreted(&c),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn twelve_qubits_supported() {
        // The former dense-superoperator ceiling was 10; the kernelized
        // engine runs 12 (vec(ρ) = 4¹² amplitudes). A single gate keeps
        // the debug-build runtime sane (measurement branching at width is
        // pure index masking, covered at smaller n); the compile → prefix
        // evolution → distribution path still runs at the full width.
        let mut c = Circuit::new(12);
        c.h(0);
        let sim = DensityMatrixSimulator::new();
        let program = sim.compile(&c).unwrap();
        assert_eq!(program.dim(), 1 << 12);
        let dist = sim.outcome_distribution_compiled(&program).unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_noise_rejected() {
        let mut noise = NoiseModel::ideal();
        noise.depol_1q = 1.5;
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(DensityMatrixSimulator::with_noise(noise)
            .evolve(&c)
            .is_err());
    }

    #[test]
    fn damping_relaxes_excited_state() {
        let mut c = Circuit::new(1);
        c.x(0);
        // Apply many identity-like gates to accumulate damping.
        for _ in 0..50 {
            c.rz(0.0, 0);
        }
        let mut noise = NoiseModel::ideal();
        noise.damping_1q = 0.05;
        let rho = DensityMatrixSimulator::with_noise(noise)
            .evolve(&c)
            .unwrap();
        let p1 = rho.get(1, 1).re;
        assert!(p1 < 0.2, "50 damping slots should relax |1⟩, p1={p1}");
    }

    #[test]
    fn noisy_ghz_degrades_gracefully() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        c.measure_all();
        let sim = DensityMatrixSimulator::with_noise(DevicePreset::melbourne_like());
        let dist = sim.outcome_distribution(&c).unwrap();
        let p_good: f64 = dist
            .iter()
            .filter(|(k, _)| *k == 0 || *k == 0b111)
            .map(|(_, p)| p)
            .sum();
        assert!(p_good > 0.6 && p_good < 0.999, "p_good={p_good}");
    }

    #[test]
    fn compiled_program_is_reusable() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).cx(0, 1);
        c.measure(0, 0).unwrap();
        c.h(1);
        c.measure(1, 1).unwrap();
        let sim = DensityMatrixSimulator::with_noise(DevicePreset::melbourne_like());
        let program = sim.compile(&c).unwrap();
        let a = sim.run_compiled(&program, 512, 9).unwrap();
        let b = sim.run(&c, 512, 9).unwrap();
        assert_eq!(a, b);
        let again = sim.run_compiled(&program, 512, 9).unwrap();
        assert_eq!(a, again);
    }
}
