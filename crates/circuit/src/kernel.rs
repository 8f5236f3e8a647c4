//! Specialized state-vector gate kernels.
//!
//! [`apply_gate_inplace`](crate::circuit::apply_gate_inplace) treats every
//! gate as a dense `2ᵏ × 2ᵏ` matrix and pays the full `4ᵏ` complex
//! multiply-accumulate per sub-block. Most gates in real circuits are far
//! more structured, and a [`Kernel`] captures that structure once — at
//! lowering time — so the per-shot hot loop runs the cheapest possible
//! update:
//!
//! * [`KernelClass::Single`] — an in-place single-qubit butterfly
//!   (4 multiplies, 2 adds per amplitude pair);
//! * [`KernelClass::Diagonal`] — phase-only gates (`Z`, `S`, `T`, `Rz`,
//!   `P`, `Cz`, `Cp`, `Crz`, `Ccz`): one multiply per amplitude, and
//!   exact-unit diagonal entries are skipped entirely;
//! * [`KernelClass::Permutation`] — classical bit-shuffles (`X`, `CX`,
//!   `CCX`, `SWAP`, `CSWAP`): pure amplitude moves, no arithmetic;
//! * [`KernelClass::Monomial`] — `k ≥ 2` matrices with exactly one nonzero
//!   per row and column that are not 0/1 permutations (scaled two-qubit
//!   Paulis such as the depolarizing Kraus operators, `CY`): one move and
//!   one multiply per amplitude instead of `2ᵏ`;
//! * [`KernelClass::Generic`] — the dense fallback, with its gather
//!   offsets precomputed and its scratch buffer caller-provided;
//! * [`KernelClass::Fused`] — a run of adjacent single-qubit or
//!   same-tuple diagonal kernels fused by [`Kernel::fuse`] into one
//!   amplitude sweep.
//!
//! Classification is structural (from the matrix, not the gate name), so
//! arbitrary [`Gate::Unitary`] gates and even non-unitary Kraus operators
//! lower to the cheapest applicable kernel.
//!
//! # Numerical contract
//!
//! Every kernel performs arithmetic identical to the dense fallback up to
//! the sign of zero components (the dense path folds exact-zero products
//! into its accumulator; specialized kernels skip them). Probabilities
//! (`|amp|²`) and every comparison derived from them are therefore
//! bit-for-bit identical across kernel classes — the seed-compatibility
//! contract the compiled execution engine in `qra-sim` relies on.
//!
//! Fusion and threading are held to a *stronger* contract: bit-for-bit
//! equality with the sequential unfused kernels, not merely
//! modulo-sign-of-zero. A fused kernel is **loop fusion**, never a matrix
//! product — each constituent stage's arithmetic runs unchanged, per
//! amplitude pair, in program order — and [`Kernel::apply_threaded`] only
//! re-partitions an amplitude loop whose iterations are independent, so
//! every amplitude sees the identical operation sequence at any thread
//! count.

use crate::Gate;
use qra_math::{CMatrix, C64};

/// Width threshold (in qubits) above which [`Kernel::apply_threaded`]
/// engages worker threads. Below `2^10` amplitudes the `thread::scope`
/// spawn/join cost dominates the sweep itself, so smaller states always
/// run the sequential path (which keeps tiny kernels bit-identical *and*
/// fast at any configured thread count).
pub const PARALLEL_THRESHOLD_QUBITS: usize = 10;

/// The specialization a matrix lowered to; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// In-place single-qubit butterfly.
    Single,
    /// Phase-only diagonal update.
    Diagonal,
    /// Pure amplitude permutation.
    Permutation,
    /// Scaled permutation: one nonzero per row and column.
    Monomial,
    /// Dense matrix fallback.
    Generic,
    /// A fused run of single-qubit or same-tuple diagonal kernels.
    Fused,
}

impl KernelClass {
    /// Every class, in declaration (and histogram) order.
    const ALL: [KernelClass; 6] = [
        KernelClass::Single,
        KernelClass::Diagonal,
        KernelClass::Permutation,
        KernelClass::Monomial,
        KernelClass::Generic,
        KernelClass::Fused,
    ];

    /// Counts `classes` per class, in declaration order, omitting classes
    /// that never occur — the `class_histogram` of compiled programs.
    pub fn histogram(classes: impl IntoIterator<Item = KernelClass>) -> Vec<(KernelClass, usize)> {
        let mut counts = [0usize; 6];
        for class in classes {
            counts[class as usize] += 1;
        }
        KernelClass::ALL
            .into_iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Short lowercase name used in reports and benches.
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::Single => "single",
            KernelClass::Diagonal => "diagonal",
            KernelClass::Permutation => "permutation",
            KernelClass::Monomial => "monomial",
            KernelClass::Generic => "generic",
            KernelClass::Fused => "fused",
        }
    }
}

/// A recognized Clifford-group generator with its register qubit indices.
///
/// The variant set is exactly the tableau backend's instruction set:
/// `H`, `S`, `S†`, the Paulis, `CX`, `CZ` and `SWAP` (plus the identity,
/// so `id` gates and `Rz(0)`-style no-ops never break a Clifford run).
/// Recognition is an *exact-unitary* match against the generator
/// matrices — `T`, `Rz(π)`, `√X` and friends are rejected even when they
/// are Clifford up to floating-point or global phase, which keeps the
/// stabilizer fast path's "bit-identical to the statevector engine"
/// contract trivially honest: only gates whose matrices equal the
/// generators bit-for-bit are rerouted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordOp {
    /// Identity.
    I(usize),
    /// Hadamard.
    H(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// `S†`.
    Sdg(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Controlled-X as `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric in its qubits).
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
}

impl CliffordOp {
    /// Recognizes `gate` on `qubits` as a Clifford generator, without ever
    /// touching the register width — usable at widths where
    /// [`Kernel::for_gate`]'s `2ⁿ` dimension would overflow.
    ///
    /// Arbitrary [`Gate::Unitary`] gates are recognized too when their
    /// matrix equals a generator's exactly.
    pub fn from_gate(gate: &Gate, qubits: &[usize]) -> Option<CliffordOp> {
        match gate.unitary_matrix() {
            Some(m) => Self::from_unitary(m, qubits),
            None => Self::from_unitary(&gate.matrix(), qubits),
        }
    }

    /// Recognizes an explicit big-endian unitary on `qubits` by exact
    /// entry-wise comparison against the generator matrices (`-0.0` and
    /// `0.0` compare equal, matching the kernel numerical contract).
    pub fn from_unitary(matrix: &CMatrix, qubits: &[usize]) -> Option<CliffordOp> {
        match qubits.len() {
            1 => {
                let q = qubits[0];
                type Make1 = fn(usize) -> CliffordOp;
                let gens: [(Gate, Make1); 7] = [
                    (Gate::I, CliffordOp::I),
                    (Gate::H, CliffordOp::H),
                    (Gate::S, CliffordOp::S),
                    (Gate::Sdg, CliffordOp::Sdg),
                    (Gate::X, CliffordOp::X),
                    (Gate::Y, CliffordOp::Y),
                    (Gate::Z, CliffordOp::Z),
                ];
                gens.iter()
                    .find(|(g, _)| matrices_exactly_equal(matrix, &g.matrix()))
                    .map(|(_, make)| make(q))
            }
            2 => {
                let (a, b) = (qubits[0], qubits[1]);
                type Make2 = fn(usize, usize) -> CliffordOp;
                let gens: [(Gate, Make2); 3] = [
                    (Gate::Cx, CliffordOp::Cx),
                    (Gate::Cz, CliffordOp::Cz),
                    (Gate::Swap, CliffordOp::Swap),
                ];
                gens.iter()
                    .find(|(g, _)| matrices_exactly_equal(matrix, &g.matrix()))
                    .map(|(_, make)| make(a, b))
            }
            _ => None,
        }
    }
}

fn matrices_exactly_equal(a: &CMatrix, b: &CMatrix) -> bool {
    if a.rows() != b.rows() {
        return false;
    }
    for r in 0..a.rows() {
        for c in 0..a.rows() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            if x.re != y.re || x.im != y.im {
                return false;
            }
        }
    }
    true
}

/// One constituent of a fused single-qubit kernel chain, applied to an
/// amplitude pair held in registers.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Dense 2×2 butterfly (a [`Body::Single`] stage).
    Butterfly {
        m00: C64,
        m01: C64,
        m10: C64,
        m11: C64,
    },
    /// Diagonal scale (a [`Body::Diag1`] stage); exact-unit factors are
    /// skipped exactly as the standalone kernel skips them.
    Diag { d0: C64, d1: C64 },
}

#[derive(Debug, Clone)]
enum Body {
    /// `k = 1` dense butterfly over amplitude pairs split by `mask`.
    Single {
        m00: C64,
        m01: C64,
        m10: C64,
        m11: C64,
        mask: usize,
    },
    /// `k = 1` diagonal: low half scaled by `d0`, high half by `d1`.
    Diag1 { d0: C64, d1: C64, mask: usize },
    /// `k ≥ 2` diagonal over the gathered sub-index.
    Diagonal { diag: Vec<C64>, shifts: Vec<usize> },
    /// Sub-block permutation: new sub-amplitude `r` reads old `src[r]`.
    Permutation {
        src: Vec<usize>,
        offsets: Vec<usize>,
        gate_mask: usize,
    },
    /// `k ≥ 2` scaled permutation: new sub-amplitude `r` is
    /// `coef[r] · old[src[r]]`.
    Monomial {
        src: Vec<usize>,
        coef: Vec<C64>,
        offsets: Vec<usize>,
        gate_mask: usize,
    },
    /// Dense fallback with precomputed scatter offsets.
    Generic {
        matrix: CMatrix,
        offsets: Vec<usize>,
        gate_mask: usize,
    },
    /// Fused chain of `k = 1` kernels on one qubit: every stage runs on
    /// the amplitude pair in registers before it is stored back.
    Fused { stages: Vec<Stage>, mask: usize },
    /// Fused chain of `k ≥ 2` diagonals on one qubit tuple: the sub-index
    /// is computed once per amplitude and every stage's factor applied in
    /// program order.
    FusedDiag {
        diags: Vec<Vec<C64>>,
        shifts: Vec<usize>,
    },
}

/// A gate lowered onto a fixed qubit tuple of a fixed-width register,
/// ready for repeated O(2ⁿ) in-place application.
///
/// ```rust
/// use qra_circuit::kernel::{Kernel, KernelClass};
/// use qra_circuit::Gate;
/// use qra_math::CVector;
///
/// let k = Kernel::for_gate(&Gate::Cx, &[0, 1], 2);
/// assert_eq!(k.class(), KernelClass::Permutation);
/// let mut state = CVector::basis_state(4, 0b10).into_inner();
/// let mut scratch = Vec::new();
/// k.apply(&mut state, &mut scratch);
/// assert_eq!(state[0b11], qra_math::C64::one());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    body: Body,
    dim: usize,
}

fn exact_zero(z: C64) -> bool {
    z.re == 0.0 && z.im == 0.0
}

fn exact_one(z: C64) -> bool {
    z.re == 1.0 && z.im == 0.0
}

/// Raw amplitude-array pointer shared across scoped worker threads. Each
/// worker is handed a disjoint index range, so concurrent access never
/// aliases; see the per-use SAFETY comments.
struct SendPtr(*mut C64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// The `ordinal`-th sub-block base index: `ordinal`'s bits deposited in
/// ascending order into the zero bit positions of `gate_mask` — exactly
/// the sequence the sequential `(base | gate_mask) + 1 & !gate_mask`
/// walk enumerates.
fn nth_base(mut ordinal: usize, gate_mask: usize, dim: usize) -> usize {
    let mut base = 0usize;
    let mut bit = 1usize;
    while bit < dim {
        if gate_mask & bit == 0 {
            if ordinal & 1 == 1 {
                base |= bit;
            }
            ordinal >>= 1;
        }
        bit <<= 1;
    }
    base
}

/// Runs `f(pair_low, pair_high)` over every butterfly pair `(i, i + mask)`
/// of `state`, split into contiguous per-thread pair ranges.
fn par_pair_loop<F>(state: &mut [C64], mask: usize, threads: usize, f: F)
where
    F: Fn(&mut C64, &mut C64) + Sync,
{
    let pairs = state.len() / 2;
    let threads = threads.min(pairs);
    let chunk = pairs.div_ceil(threads);
    let lo_mask = mask - 1;
    let ptr = SendPtr(state.as_mut_ptr());
    std::thread::scope(|s| {
        let ptr = &ptr;
        let f = &f;
        for t in 0..threads {
            let start = t * chunk;
            let end = pairs.min(start + chunk);
            if start >= end {
                break;
            }
            s.spawn(move || {
                for p in start..end {
                    // Pair ordinal `p` ↔ amplitude index `i`: the bits of
                    // `p` below the gate bit stay in place, the rest shift
                    // up past it — the same enumeration order as the
                    // sequential block walk.
                    let i = ((p & !lo_mask) << 1) | (p & lo_mask);
                    // SAFETY: the ordinal↔index map is a bijection onto
                    // the low halves, so distinct ordinals yield disjoint
                    // {i, i + mask} pairs, and each worker owns a disjoint
                    // ordinal range — no two threads touch one amplitude.
                    unsafe {
                        let a0 = &mut *ptr.0.add(i);
                        let a1 = &mut *ptr.0.add(i + mask);
                        f(a0, a1);
                    }
                }
            });
        }
    });
}

/// Runs `f(global_index, amplitude)` over every amplitude, split into
/// contiguous per-thread chunks. Safe: `chunks_mut` hands each worker an
/// exclusive slice.
fn par_amp_loop<F>(state: &mut [C64], threads: usize, f: F)
where
    F: Fn(usize, &mut C64) + Sync,
{
    let len = state.len();
    let chunk = len.div_ceil(threads.min(len));
    std::thread::scope(|s| {
        let f = &f;
        for (t, ch) in state.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let base = t * chunk;
                for (j, amp) in ch.iter_mut().enumerate() {
                    f(base + j, amp);
                }
            });
        }
    });
}

/// The first `sub_dim` entries of the caller's reusable scratch, grown on
/// demand; the re-slice keeps every index past `sub_dim` unreachable even
/// when the caller hands an oversized buffer.
fn sub_block_scratch(scratch: &mut Vec<C64>, sub_dim: usize) -> &mut [C64] {
    if scratch.len() < sub_dim {
        scratch.resize(sub_dim, C64::zero());
    }
    &mut scratch[..sub_dim]
}

/// Calls `f(base)` for every sub-block base of `gate_mask` in ascending
/// order: the zero-bit positions of `gate_mask` counted up from 0.
fn for_each_base(dim: usize, gate_mask: usize, mut f: impl FnMut(usize)) {
    let mut base = 0usize;
    loop {
        f(base);
        base = (base | gate_mask).wrapping_add(1) & !gate_mask;
        if base == 0 || base >= dim {
            break;
        }
    }
}

/// Runs `f(ptr, base, local)` over every sub-block base of `gate_mask`,
/// split into contiguous per-thread base-ordinal ranges. `ptr` is the
/// state's base pointer and `local` a private sub-block-sized scratch per
/// worker, never shared across threads. `f` may touch only the indices
/// `base | off` (`off` in `offsets`) of the sub-block it is handed: bases
/// are disjoint index sets and every base goes to exactly one worker.
fn par_block_loop<F>(state: &mut [C64], gate_mask: usize, offsets: &[usize], threads: usize, f: F)
where
    F: Fn(*mut C64, usize, &mut [C64]) + Sync,
{
    let sub_dim = offsets.len();
    let dim = state.len();
    let n_bases = dim / sub_dim;
    let threads = threads.min(n_bases);
    let chunk = n_bases.div_ceil(threads);
    let ptr = SendPtr(state.as_mut_ptr());
    std::thread::scope(|s| {
        let ptr = &ptr;
        let f = &f;
        for t in 0..threads {
            let start = t * chunk;
            let end = n_bases.min(start + chunk);
            if start >= end {
                break;
            }
            s.spawn(move || {
                let mut local = vec![C64::zero(); sub_dim];
                let mut base = nth_base(start, gate_mask, dim);
                for _ in start..end {
                    f(ptr.0, base, &mut local);
                    base = (base | gate_mask).wrapping_add(1) & !gate_mask;
                }
            });
        }
    });
}

impl Kernel {
    /// Lowers `gate` applied on `qubits` (gate order) of an `n`-qubit
    /// register. Arbitrary-unitary gates lower without cloning their
    /// backing matrix unless the dense fallback is needed.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices, exactly like
    /// [`crate::circuit::apply_gate_inplace`].
    pub fn for_gate(gate: &Gate, qubits: &[usize], n: usize) -> Kernel {
        match gate.unitary_matrix() {
            Some(m) => Self::from_matrix(m, qubits, n),
            None => Self::from_matrix(&gate.matrix(), qubits, n),
        }
    }

    /// Lowers an explicit `2ᵏ × 2ᵏ` matrix (not necessarily unitary — Kraus
    /// operators lower too) applied on `qubits` of an `n`-qubit register.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices.
    pub fn from_matrix(matrix: &CMatrix, qubits: &[usize], n: usize) -> Kernel {
        let k = qubits.len();
        let sub_dim = 1usize << k;
        assert_eq!(matrix.rows(), sub_dim, "gate dimension mismatch");
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < n, "qubit {q} out of range for {n} qubits");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
        let dim = 1usize << n;
        // Bit positions (from the most significant end) of each gate qubit.
        let shifts: Vec<usize> = qubits.iter().map(|&q| n - 1 - q).collect();
        let gate_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
        // offsets[s]: the full-index bits contributed by sub-index `s`.
        let offsets: Vec<usize> = (0..sub_dim)
            .map(|s| {
                let mut off = 0usize;
                for (pos, &sh) in shifts.iter().enumerate() {
                    if (s >> (k - 1 - pos)) & 1 == 1 {
                        off |= 1 << sh;
                    }
                }
                off
            })
            .collect();

        let body = if is_diagonal(matrix) {
            let diag: Vec<C64> = (0..sub_dim).map(|r| matrix.get(r, r)).collect();
            if k == 1 {
                Body::Diag1 {
                    d0: diag[0],
                    d1: diag[1],
                    mask: gate_mask,
                }
            } else {
                Body::Diagonal { diag, shifts }
            }
        } else {
            match as_monomial(matrix) {
                Some((src, coef)) if coef.iter().all(|&c| exact_one(c)) => Body::Permutation {
                    src,
                    offsets,
                    gate_mask,
                },
                _ if k == 1 => Body::Single {
                    m00: matrix.get(0, 0),
                    m01: matrix.get(0, 1),
                    m10: matrix.get(1, 0),
                    m11: matrix.get(1, 1),
                    mask: gate_mask,
                },
                Some((src, coef)) => Body::Monomial {
                    src,
                    coef,
                    offsets,
                    gate_mask,
                },
                None => Body::Generic {
                    matrix: matrix.clone(),
                    offsets,
                    gate_mask,
                },
            }
        };
        Kernel { body, dim }
    }

    /// The specialization class this kernel lowered to.
    pub fn class(&self) -> KernelClass {
        match &self.body {
            Body::Single { .. } => KernelClass::Single,
            Body::Diag1 { .. } | Body::Diagonal { .. } => KernelClass::Diagonal,
            Body::Permutation { .. } => KernelClass::Permutation,
            Body::Monomial { .. } => KernelClass::Monomial,
            Body::Generic { .. } => KernelClass::Generic,
            Body::Fused { .. } | Body::FusedDiag { .. } => KernelClass::Fused,
        }
    }

    /// The full register dimension (`2ⁿ`) this kernel was lowered for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Recognizes this kernel as a Clifford generator, reusing the
    /// structural classification: a [`Body::Single`] can only be `H` or
    /// `Y`, a [`Body::Diag1`] one of `I`/`S`/`S†`/`Z`, a two-qubit
    /// diagonal `CZ`, and a permutation `X`/`CX`/`SWAP`. Entries are
    /// compared exactly against the generator matrices (see
    /// [`CliffordOp::from_unitary`]); fused and generic kernels are never
    /// Clifford-tagged.
    pub fn as_clifford(&self) -> Option<CliffordOp> {
        let n = self.dim.trailing_zeros() as usize;
        let qubit_of = |bit: usize| n - 1 - bit.trailing_zeros() as usize;
        let eq = |a: C64, b: C64| a.re == b.re && a.im == b.im;
        match &self.body {
            Body::Single {
                m00,
                m01,
                m10,
                m11,
                mask,
            } => {
                let q = qubit_of(*mask);
                for (gate, make) in [
                    (Gate::H, CliffordOp::H as fn(usize) -> CliffordOp),
                    (Gate::Y, CliffordOp::Y),
                ] {
                    let m = gate.matrix();
                    if eq(*m00, m.get(0, 0))
                        && eq(*m01, m.get(0, 1))
                        && eq(*m10, m.get(1, 0))
                        && eq(*m11, m.get(1, 1))
                    {
                        return Some(make(q));
                    }
                }
                None
            }
            Body::Diag1 { d0, d1, mask } => {
                if !exact_one(*d0) {
                    return None;
                }
                let q = qubit_of(*mask);
                if exact_one(*d1) {
                    Some(CliffordOp::I(q))
                } else if d1.re == 0.0 && d1.im == 1.0 {
                    Some(CliffordOp::S(q))
                } else if d1.re == 0.0 && d1.im == -1.0 {
                    Some(CliffordOp::Sdg(q))
                } else if d1.re == -1.0 && d1.im == 0.0 {
                    Some(CliffordOp::Z(q))
                } else {
                    None
                }
            }
            Body::Diagonal { diag, shifts } if shifts.len() == 2 => {
                let cz = exact_one(diag[0])
                    && exact_one(diag[1])
                    && exact_one(diag[2])
                    && diag[3].re == -1.0
                    && diag[3].im == 0.0;
                cz.then(|| CliffordOp::Cz(n - 1 - shifts[0], n - 1 - shifts[1]))
            }
            Body::Permutation { src, offsets, .. } => match src.as_slice() {
                [1, 0] => Some(CliffordOp::X(qubit_of(offsets[1]))),
                // offsets[2] is gate qubit 0's bit, offsets[1] gate qubit 1's.
                [0, 1, 3, 2] => Some(CliffordOp::Cx(qubit_of(offsets[2]), qubit_of(offsets[1]))),
                [0, 2, 1, 3] => Some(CliffordOp::Swap(qubit_of(offsets[2]), qubit_of(offsets[1]))),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of original kernels folded into this one (1 when unfused).
    pub fn fused_stages(&self) -> usize {
        match &self.body {
            Body::Fused { stages, .. } => stages.len(),
            Body::FusedDiag { diags, .. } => diags.len(),
            _ => 1,
        }
    }

    /// The stage list of a fusible 1-qubit kernel plus its split mask.
    fn single_stages(&self) -> Option<(Vec<Stage>, usize)> {
        match &self.body {
            Body::Single {
                m00,
                m01,
                m10,
                m11,
                mask,
            } => Some((
                vec![Stage::Butterfly {
                    m00: *m00,
                    m01: *m01,
                    m10: *m10,
                    m11: *m11,
                }],
                *mask,
            )),
            Body::Diag1 { d0, d1, mask } => Some((vec![Stage::Diag { d0: *d0, d1: *d1 }], *mask)),
            Body::Fused { stages, mask } => Some((stages.clone(), *mask)),
            _ => None,
        }
    }

    /// The diagonal chain of a fusible `k ≥ 2` diagonal kernel plus its
    /// bit shifts.
    fn diag_stages(&self) -> Option<(Vec<Vec<C64>>, &[usize])> {
        match &self.body {
            Body::Diagonal { diag, shifts } => Some((vec![diag.clone()], shifts)),
            Body::FusedDiag { diags, shifts } => Some((diags.clone(), shifts)),
            _ => None,
        }
    }

    /// Fuses `self` (applied first) with `next` (applied second) into one
    /// kernel when both act on the same qubit tuple and both are
    /// single-qubit or diagonal. Returns `None` when the pair is not
    /// fusible (different tuples, or a permutation/dense factor).
    ///
    /// Fusion is **loop fusion**, not a matrix product: the fused kernel
    /// replays each constituent's arithmetic per amplitude in program
    /// order, so applying it is bit-for-bit identical to applying the two
    /// kernels back-to-back — while sweeping the state once instead of
    /// twice.
    pub fn fuse(&self, next: &Kernel) -> Option<Kernel> {
        if self.dim != next.dim {
            return None;
        }
        if let (Some((mut a, mask_a)), Some((b, mask_b))) =
            (self.single_stages(), next.single_stages())
        {
            if mask_a == mask_b {
                a.extend(b);
                return Some(Kernel {
                    body: Body::Fused {
                        stages: a,
                        mask: mask_a,
                    },
                    dim: self.dim,
                });
            }
        }
        if let (Some((mut a, shifts_a)), Some((b, shifts_b))) =
            (self.diag_stages(), next.diag_stages())
        {
            if shifts_a == shifts_b {
                let shifts = shifts_a.to_vec();
                a.extend(b);
                return Some(Kernel {
                    body: Body::FusedDiag { diags: a, shifts },
                    dim: self.dim,
                });
            }
        }
        None
    }

    /// Applies the kernel to `state` in place. `scratch` is a reusable
    /// buffer (grown on demand, never shrunk) so repeated application
    /// allocates nothing after the first call.
    ///
    /// # Panics
    ///
    /// Panics when `state.len()` disagrees with the lowered dimension.
    pub fn apply(&self, state: &mut [C64], scratch: &mut Vec<C64>) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        match &self.body {
            Body::Single {
                m00,
                m01,
                m10,
                m11,
                mask,
            } => {
                let pair = mask << 1;
                let mut base = 0usize;
                while base < self.dim {
                    for i in base..base + mask {
                        let a0 = state[i];
                        let a1 = state[i + mask];
                        state[i] = *m00 * a0 + *m01 * a1;
                        state[i + mask] = *m10 * a0 + *m11 * a1;
                    }
                    base += pair;
                }
            }
            Body::Diag1 { d0, d1, mask } => {
                let pair = mask << 1;
                let scale0 = !exact_one(*d0);
                let scale1 = !exact_one(*d1);
                let mut base = 0usize;
                while base < self.dim {
                    if scale0 {
                        for amp in &mut state[base..base + mask] {
                            *amp *= *d0;
                        }
                    }
                    if scale1 {
                        for amp in &mut state[base + mask..base + pair] {
                            *amp *= *d1;
                        }
                    }
                    base += pair;
                }
            }
            Body::Diagonal { diag, shifts } => {
                let k = shifts.len();
                for (i, amp) in state.iter_mut().enumerate() {
                    let mut s = 0usize;
                    for (pos, &sh) in shifts.iter().enumerate() {
                        s |= ((i >> sh) & 1) << (k - 1 - pos);
                    }
                    let d = diag[s];
                    if !exact_one(d) {
                        *amp *= d;
                    }
                }
            }
            Body::Fused { stages, mask } => {
                // SAFETY: the exclusive borrow covers every pair index
                // and the full ordinal range is swept once.
                unsafe { fused_stage_sweep(stages, state.as_mut_ptr(), *mask, 0, self.dim >> 1) }
            }
            Body::FusedDiag { diags, shifts } => {
                let k = shifts.len();
                for (i, amp) in state.iter_mut().enumerate() {
                    let mut s = 0usize;
                    for (pos, &sh) in shifts.iter().enumerate() {
                        s |= ((i >> sh) & 1) << (k - 1 - pos);
                    }
                    for diag in diags {
                        let d = diag[s];
                        if !exact_one(d) {
                            *amp *= d;
                        }
                    }
                }
            }
            Body::Permutation {
                src,
                offsets,
                gate_mask,
            } => {
                let scratch = sub_block_scratch(scratch, offsets.len());
                debug_assert!(
                    src.iter().all(|&s| s < offsets.len()),
                    "permutation source index outside the sub-block"
                );
                for_each_base(self.dim, *gate_mask, |base| {
                    for (slot, &s) in scratch.iter_mut().zip(src.iter()) {
                        *slot = state[base | offsets[s]];
                    }
                    for (&off, &amp) in offsets.iter().zip(scratch.iter()) {
                        state[base | off] = amp;
                    }
                });
            }
            Body::Monomial {
                src,
                coef,
                offsets,
                gate_mask,
            } => {
                let scratch = sub_block_scratch(scratch, offsets.len());
                for_each_base(self.dim, *gate_mask, |base| {
                    for (slot, &s) in scratch.iter_mut().zip(src.iter()) {
                        *slot = state[base | offsets[s]];
                    }
                    for ((&off, &amp), &c) in offsets.iter().zip(scratch.iter()).zip(coef) {
                        state[base | off] = c * amp;
                    }
                });
            }
            Body::Generic {
                matrix,
                offsets,
                gate_mask,
            } => {
                let scratch = sub_block_scratch(scratch, offsets.len());
                debug_assert!(matrix.rows() == scratch.len());
                for_each_base(self.dim, *gate_mask, |base| {
                    for (slot, &off) in scratch.iter_mut().zip(offsets.iter()) {
                        *slot = state[base | off];
                    }
                    for (r, &off) in offsets.iter().enumerate() {
                        let mut acc = C64::zero();
                        for (c, &amp) in scratch.iter().enumerate() {
                            acc += matrix.get(r, c) * amp;
                        }
                        state[base | off] = acc;
                    }
                });
            }
        }
    }

    /// Applies the kernel like [`Kernel::apply`], splitting the amplitude
    /// sweep across `threads` scoped worker threads when the state is at
    /// least `2^`[`PARALLEL_THRESHOLD_QUBITS`] amplitudes.
    ///
    /// Bit-for-bit identical to the sequential path at every thread
    /// count: workers own disjoint contiguous index ranges, every
    /// amplitude undergoes the identical arithmetic, and the
    /// gather/scatter classes allocate a private scratch per worker so no
    /// buffer is ever shared across threads (`scratch` is only used by
    /// the sequential fallback).
    ///
    /// # Panics
    ///
    /// Panics when `state.len()` disagrees with the lowered dimension.
    pub fn apply_threaded(&self, state: &mut [C64], scratch: &mut Vec<C64>, threads: usize) {
        if threads <= 1 || self.dim < (1 << PARALLEL_THRESHOLD_QUBITS) {
            return self.apply(state, scratch);
        }
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        match &self.body {
            Body::Single {
                m00,
                m01,
                m10,
                m11,
                mask,
            } => {
                par_pair_loop(state, *mask, threads, |a0, a1| {
                    let b0 = *m00 * *a0 + *m01 * *a1;
                    let b1 = *m10 * *a0 + *m11 * *a1;
                    *a0 = b0;
                    *a1 = b1;
                });
            }
            Body::Fused { stages, mask } => {
                let pairs = state.len() / 2;
                let threads = threads.min(pairs);
                let chunk = pairs.div_ceil(threads);
                let mask = *mask;
                let ptr = SendPtr(state.as_mut_ptr());
                std::thread::scope(|s| {
                    let ptr = &ptr;
                    for t in 0..threads {
                        let start = t * chunk;
                        let end = pairs.min(start + chunk);
                        if start >= end {
                            break;
                        }
                        s.spawn(move || {
                            // SAFETY: disjoint ordinal ranges per worker;
                            // see `fused_stage_sweep`'s contract.
                            unsafe { fused_stage_sweep(stages, ptr.0, mask, start, end) }
                        });
                    }
                });
            }
            Body::Diag1 { d0, d1, mask } => {
                let scale0 = !exact_one(*d0);
                let scale1 = !exact_one(*d1);
                if !scale0 && !scale1 {
                    return;
                }
                par_amp_loop(state, threads, |i, amp| {
                    if i & mask == 0 {
                        if scale0 {
                            *amp *= *d0;
                        }
                    } else if scale1 {
                        *amp *= *d1;
                    }
                });
            }
            Body::Diagonal { diag, shifts } => {
                let k = shifts.len();
                par_amp_loop(state, threads, |i, amp| {
                    let mut s = 0usize;
                    for (pos, &sh) in shifts.iter().enumerate() {
                        s |= ((i >> sh) & 1) << (k - 1 - pos);
                    }
                    let d = diag[s];
                    if !exact_one(d) {
                        *amp *= d;
                    }
                });
            }
            Body::FusedDiag { diags, shifts } => {
                let k = shifts.len();
                par_amp_loop(state, threads, |i, amp| {
                    let mut s = 0usize;
                    for (pos, &sh) in shifts.iter().enumerate() {
                        s |= ((i >> sh) & 1) << (k - 1 - pos);
                    }
                    for diag in diags {
                        let d = diag[s];
                        if !exact_one(d) {
                            *amp *= d;
                        }
                    }
                });
            }
            Body::Permutation {
                src,
                offsets,
                gate_mask,
            } => {
                par_block_loop(state, *gate_mask, offsets, threads, |ptr, base, local| {
                    // SAFETY: `par_block_loop` hands each base to exactly
                    // one worker, and only the base's own indices
                    // `base | off` are touched.
                    unsafe {
                        for (slot, &s) in local.iter_mut().zip(src.iter()) {
                            *slot = *ptr.add(base | offsets[s]);
                        }
                        for (&off, &amp) in offsets.iter().zip(local.iter()) {
                            *ptr.add(base | off) = amp;
                        }
                    }
                });
            }
            Body::Monomial {
                src,
                coef,
                offsets,
                gate_mask,
            } => {
                par_block_loop(state, *gate_mask, offsets, threads, |ptr, base, local| {
                    // SAFETY: as in the permutation arm.
                    unsafe {
                        for (slot, &s) in local.iter_mut().zip(src.iter()) {
                            *slot = *ptr.add(base | offsets[s]);
                        }
                        for ((&off, &amp), &c) in offsets.iter().zip(local.iter()).zip(coef) {
                            *ptr.add(base | off) = c * amp;
                        }
                    }
                });
            }
            Body::Generic {
                matrix,
                offsets,
                gate_mask,
            } => {
                par_block_loop(state, *gate_mask, offsets, threads, |ptr, base, local| {
                    // SAFETY: as in the permutation arm; the accumulation
                    // order is the sequential dense path's.
                    unsafe {
                        for (slot, &off) in local.iter_mut().zip(offsets.iter()) {
                            *slot = *ptr.add(base | off);
                        }
                        for (r, &off) in offsets.iter().enumerate() {
                            let mut acc = C64::zero();
                            for (c, &amp) in local.iter().enumerate() {
                                acc += matrix.get(r, c) * amp;
                            }
                            *ptr.add(base | off) = acc;
                        }
                    }
                });
            }
        }
    }
}

/// Pair ordinals per fused block: two 32 KiB amplitude streams, sized to
/// stay cache-resident while a stage chain replays over the block.
const FUSED_BLOCK_PAIRS: usize = 1 << 11;

/// Applies a fused stage chain over the pair-ordinal range `[start, end)`.
///
/// The loop is stage-interchanged: each stage sweeps a cache-resident
/// block of pairs as a tight monomorphic loop (the stage constants stay
/// in registers) before the next stage revisits the same block, instead
/// of re-dispatching the stage list per amplitude pair. Every amplitude
/// still undergoes exactly its standalone kernel's arithmetic in stage
/// order — stages touch disjoint pairs independently, so interchanging
/// the loops cannot change a single result bit.
///
/// # Safety
///
/// `ptr` must point at a state whose pair decomposition for `mask`
/// contains `end` pairs, and the caller must hold exclusive access to
/// every amplitude index reachable from the ordinal range (the
/// ordinal↔index map is a bijection onto the low halves, so disjoint
/// ordinal ranges are safe to sweep concurrently).
unsafe fn fused_stage_sweep(
    stages: &[Stage],
    ptr: *mut C64,
    mask: usize,
    start: usize,
    end: usize,
) {
    let lo_mask = mask - 1;
    let mut blk = start;
    while blk < end {
        let stop = end.min(blk + FUSED_BLOCK_PAIRS);
        for st in stages {
            match *st {
                Stage::Butterfly { m00, m01, m10, m11 } => {
                    for p in blk..stop {
                        let i = ((p & !lo_mask) << 1) | (p & lo_mask);
                        let a0 = *ptr.add(i);
                        let a1 = *ptr.add(i + mask);
                        *ptr.add(i) = m00 * a0 + m01 * a1;
                        *ptr.add(i + mask) = m10 * a0 + m11 * a1;
                    }
                }
                Stage::Diag { d0, d1 } => {
                    let scale0 = !exact_one(d0);
                    let scale1 = !exact_one(d1);
                    if !scale0 && !scale1 {
                        continue;
                    }
                    for p in blk..stop {
                        let i = ((p & !lo_mask) << 1) | (p & lo_mask);
                        if scale0 {
                            *ptr.add(i) *= d0;
                        }
                        if scale1 {
                            *ptr.add(i + mask) *= d1;
                        }
                    }
                }
            }
        }
        blk = stop;
    }
}

/// Scratch for a [`ConjugationPair`] application: one private buffer per
/// factor, so a buffer is never threaded through two kernel applications
/// (the aliasing hazard the threaded engine must exclude).
#[derive(Debug, Default, Clone)]
pub struct PairScratch {
    left: Vec<C64>,
    right: Vec<C64>,
}

/// A lowered conjugation map `ρ ← AρA†` over a vectorized density matrix.
///
/// A `d × d` density matrix on `n` qubits, flattened row-major
/// (`vec(ρ)[r·d + c] = ρ[r][c]`), is index-isomorphic to a `2n`-qubit state
/// vector whose high `n` bits are the row index and low `n` bits the
/// column index. Under that isomorphism:
///
/// * left multiplication `Aρ` is `A` applied to the **row** qubits —
///   gate qubit `q` lands on register qubit `q` of the `2n` register;
/// * right multiplication `MA†` is `Ā` (elementwise conjugate, **not**
///   the adjoint) applied to the **column** qubits — gate qubit `q` lands
///   on register qubit `n + q`.
///
/// Both factors lower through [`Kernel::from_matrix`] and inherit its
/// structural classification: an `X`/`CX` conjugation is two pure index
/// permutations of ρ and a `Z`/`S`/`T`/`Rz` conjugation is two `O(d²)`
/// phase sweeps, instead of two `O(d³)` dense multiplies. Non-unitary
/// Kraus operators lower identically (the completeness sum is the
/// caller's concern).
///
/// ```rust
/// use qra_circuit::kernel::{ConjugationPair, PairScratch};
/// use qra_circuit::Gate;
/// use qra_math::C64;
///
/// // X|0⟩⟨0|X = |1⟩⟨1| on a 1-qubit register: vec(ρ) has 4 entries.
/// let pair = ConjugationPair::for_gate(&Gate::X, &[0], 1);
/// let mut rho = vec![C64::one(), C64::zero(), C64::zero(), C64::zero()];
/// pair.apply(&mut rho, &mut PairScratch::default());
/// assert_eq!(rho[0b11], C64::one());
/// ```
#[derive(Debug, Clone)]
pub struct ConjugationPair {
    left: Kernel,
    right: Kernel,
}

impl ConjugationPair {
    /// Lowers `matrix` acting on `qubits` of an `n`-qubit density matrix
    /// into the left/right kernel pair over the `2n`-qubit vectorization.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or invalid qubit indices, exactly like
    /// [`Kernel::from_matrix`].
    pub fn lower(matrix: &CMatrix, qubits: &[usize], n: usize) -> ConjugationPair {
        let col_qubits: Vec<usize> = qubits.iter().map(|&q| q + n).collect();
        ConjugationPair {
            left: Kernel::from_matrix(matrix, qubits, 2 * n),
            right: Kernel::from_matrix(&matrix.conj(), &col_qubits, 2 * n),
        }
    }

    /// Lowers a gate's matrix; see [`ConjugationPair::lower`].
    pub fn for_gate(gate: &Gate, qubits: &[usize], n: usize) -> ConjugationPair {
        match gate.unitary_matrix() {
            Some(m) => Self::lower(m, qubits, n),
            None => Self::lower(&gate.matrix(), qubits, n),
        }
    }

    /// Applies `ρ ← AρA†` in place on the row-major flattened density
    /// matrix (`4ⁿ` entries). Each factor uses its own buffer inside
    /// `scratch`, reused across calls like [`Kernel::apply`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `vec_rho.len()` disagrees with the lowered dimension.
    pub fn apply(&self, vec_rho: &mut [C64], scratch: &mut PairScratch) {
        self.left.apply(vec_rho, &mut scratch.left);
        self.right.apply(vec_rho, &mut scratch.right);
    }

    /// Like [`ConjugationPair::apply`], but each factor sweeps `vec_rho`
    /// with [`Kernel::apply_threaded`].
    pub fn apply_threaded(&self, vec_rho: &mut [C64], scratch: &mut PairScratch, threads: usize) {
        self.left
            .apply_threaded(vec_rho, &mut scratch.left, threads);
        self.right
            .apply_threaded(vec_rho, &mut scratch.right, threads);
    }

    /// The classification of the left (row-side) factor; the right factor
    /// always lowers to the same class (conjugation preserves structure).
    pub fn class(&self) -> KernelClass {
        self.left.class()
    }
}

/// `true` when every off-diagonal entry is exactly zero.
fn is_diagonal(m: &CMatrix) -> bool {
    let d = m.rows();
    for r in 0..d {
        for c in 0..d {
            if r != c && !exact_zero(m.get(r, c)) {
                return false;
            }
        }
    }
    true
}

/// When `m` has exactly one nonzero entry per row, in distinct columns,
/// returns `(src, coef)` with `m[r][src[r]] = coef[r]` the row's nonzero;
/// `None` otherwise. A 0/1 permutation matrix has every `coef` exactly one.
fn as_monomial(m: &CMatrix) -> Option<(Vec<usize>, Vec<C64>)> {
    let d = m.rows();
    let mut src = Vec::with_capacity(d);
    let mut coef = Vec::with_capacity(d);
    let mut used = vec![false; d];
    for r in 0..d {
        let mut found: Option<usize> = None;
        for c in 0..d {
            if exact_zero(m.get(r, c)) {
                continue;
            }
            if found.is_some() {
                return None;
            }
            found = Some(c);
        }
        let c = found?;
        if used[c] {
            return None;
        }
        used[c] = true;
        src.push(c);
        coef.push(m.get(r, c));
    }
    Some((src, coef))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::embed;
    use qra_math::CVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(rng: &mut StdRng, dim: usize) -> CVector {
        let raw: Vec<C64> = (0..dim)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        CVector::new(raw).normalized().unwrap()
    }

    fn distinct_qubits(rng: &mut StdRng, k: usize, n: usize) -> Vec<usize> {
        let mut qs: Vec<usize> = Vec::new();
        while qs.len() < k {
            let q = rng.gen_range(0..n);
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        qs
    }

    #[test]
    fn classification_per_gate() {
        let n = 3;
        let cases = [
            (Gate::H, vec![0], KernelClass::Single),
            (Gate::Y, vec![1], KernelClass::Single),
            (Gate::Rx(0.3), vec![2], KernelClass::Single),
            (Gate::Z, vec![0], KernelClass::Diagonal),
            (Gate::S, vec![1], KernelClass::Diagonal),
            (Gate::T, vec![1], KernelClass::Diagonal),
            (Gate::Rz(0.7), vec![2], KernelClass::Diagonal),
            (Gate::Phase(0.4), vec![0], KernelClass::Diagonal),
            (Gate::Cz, vec![0, 1], KernelClass::Diagonal),
            (Gate::Cp(0.2), vec![1, 2], KernelClass::Diagonal),
            (Gate::Crz(0.9), vec![0, 2], KernelClass::Diagonal),
            (Gate::Ccz, vec![0, 1, 2], KernelClass::Diagonal),
            (Gate::X, vec![0], KernelClass::Permutation),
            (Gate::Cx, vec![0, 1], KernelClass::Permutation),
            (Gate::Swap, vec![1, 2], KernelClass::Permutation),
            (Gate::Ccx, vec![0, 1, 2], KernelClass::Permutation),
            (Gate::Cswap, vec![0, 1, 2], KernelClass::Permutation),
            (Gate::Ch, vec![0, 1], KernelClass::Generic),
            (Gate::Cu3(0.1, 0.2, 0.3), vec![1, 0], KernelClass::Generic),
        ];
        for (gate, qubits, class) in cases {
            let kernel = Kernel::for_gate(&gate, &qubits, n);
            assert_eq!(kernel.class(), class, "{gate} misclassified");
        }
    }

    #[test]
    fn clifford_generators_recognized_with_qubits() {
        let n = 5;
        let cases: [(Gate, Vec<usize>, CliffordOp); 10] = [
            (Gate::I, vec![3], CliffordOp::I(3)),
            (Gate::H, vec![0], CliffordOp::H(0)),
            (Gate::S, vec![1], CliffordOp::S(1)),
            (Gate::Sdg, vec![4], CliffordOp::Sdg(4)),
            (Gate::X, vec![2], CliffordOp::X(2)),
            (Gate::Y, vec![1], CliffordOp::Y(1)),
            (Gate::Z, vec![0], CliffordOp::Z(0)),
            (Gate::Cx, vec![3, 1], CliffordOp::Cx(3, 1)),
            (Gate::Cz, vec![0, 4], CliffordOp::Cz(0, 4)),
            (Gate::Swap, vec![2, 0], CliffordOp::Swap(2, 0)),
        ];
        for (gate, qubits, expect) in cases {
            assert_eq!(
                Kernel::for_gate(&gate, &qubits, n).as_clifford(),
                Some(expect),
                "{gate} kernel not Clifford-classified"
            );
            assert_eq!(
                CliffordOp::from_gate(&gate, &qubits),
                Some(expect),
                "{gate} gate not Clifford-classified"
            );
        }
    }

    #[test]
    fn non_clifford_gates_rejected() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let n = 3;
        let cases: [(Gate, Vec<usize>); 10] = [
            (Gate::T, vec![0]),
            (Gate::Tdg, vec![1]),
            (Gate::Sx, vec![0]),
            (Gate::Rz(0.7), vec![2]),
            // Clifford up to floating point / global phase, but not an
            // exact generator match — must stay on the dense path.
            (Gate::Rz(PI), vec![0]),
            (Gate::Phase(FRAC_PI_2), vec![1]),
            (Gate::Ry(FRAC_PI_2), vec![2]),
            (Gate::Ch, vec![0, 1]),
            (Gate::Cu3(0.1, 0.2, 0.3), vec![1, 2]),
            (Gate::Ccx, vec![0, 1, 2]),
        ];
        for (gate, qubits) in cases {
            assert_eq!(
                Kernel::for_gate(&gate, &qubits, n).as_clifford(),
                None,
                "{gate} kernel wrongly Clifford-classified"
            );
            assert_eq!(
                CliffordOp::from_gate(&gate, &qubits),
                None,
                "{gate} gate wrongly Clifford-classified"
            );
        }
    }

    #[test]
    fn exact_unitary_matrices_recognized_without_gate_names() {
        let h = Gate::unitary(Gate::H.matrix(), "custom-h").unwrap();
        assert_eq!(CliffordOp::from_gate(&h, &[2]), Some(CliffordOp::H(2)));
        assert_eq!(
            Kernel::for_gate(&h, &[2], 4).as_clifford(),
            Some(CliffordOp::H(2))
        );
        let almost = Gate::unitary(Gate::Rz(1e-12).matrix(), "almost-id").unwrap();
        assert_eq!(CliffordOp::from_gate(&almost, &[0]), None);
    }

    #[test]
    fn fused_kernels_are_never_clifford() {
        let a = Kernel::for_gate(&Gate::H, &[0], 2);
        let b = Kernel::for_gate(&Gate::H, &[0], 2);
        let fused = a.fuse(&b).unwrap();
        assert_eq!(fused.as_clifford(), None);
    }

    #[test]
    fn identity_is_skipped_diagonal() {
        let k = Kernel::for_gate(&Gate::I, &[0], 2);
        assert_eq!(k.class(), KernelClass::Diagonal);
        let mut state = CVector::basis_state(4, 3).into_inner();
        let before = state.clone();
        k.apply(&mut state, &mut Vec::new());
        assert_eq!(state, before);
    }

    /// Every kernel class must agree with the dense embedding on random
    /// states and random qubit placements — the compiled-engine analogue of
    /// `apply_gate_inplace_matches_embed`.
    #[test]
    fn kernels_match_embed_across_classes() {
        let mut rng = StdRng::seed_from_u64(20);
        let n = 5;
        let dim = 1 << n;
        let gates: Vec<Gate> = vec![
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Tdg,
            Gate::Sx,
            Gate::Rz(1.3),
            Gate::Ry(-0.8),
            Gate::Phase(2.2),
            Gate::U3(0.4, 1.0, -0.5),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ch,
            Gate::Cp(0.6),
            Gate::Crz(-1.1),
            Gate::Cu3(0.3, 0.2, 0.1),
            Gate::Ccx,
            Gate::Ccz,
            Gate::Cswap,
        ];
        let mut scratch = Vec::new();
        for gate in &gates {
            for _ in 0..4 {
                let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
                let state = random_state(&mut rng, dim);
                let mut fast = state.clone().into_inner();
                Kernel::for_gate(gate, &qubits, n).apply(&mut fast, &mut scratch);
                let slow = embed(&gate.matrix(), &qubits, n).mul_vec(&state);
                assert!(
                    CVector::new(fast).approx_eq(&slow, 1e-9),
                    "{gate} on {qubits:?} diverged from embedding"
                );
            }
        }
    }

    #[test]
    fn kraus_like_non_unitary_matrices_lower() {
        // Phase-damping K0 = diag(1, √(1-p)) is non-unitary but diagonal.
        let k0 = CMatrix::diagonal(&[C64::one(), C64::from(0.8f64.sqrt())]);
        let kernel = Kernel::from_matrix(&k0, &[1], 2);
        assert_eq!(kernel.class(), KernelClass::Diagonal);
        // Amplitude-damping K1 = |0⟩⟨1|·√γ is non-unitary and dense.
        let k1 = CMatrix::new(
            2,
            2,
            vec![
                C64::zero(),
                C64::from(0.3f64.sqrt()),
                C64::zero(),
                C64::zero(),
            ],
        );
        let kernel = Kernel::from_matrix(&k1, &[0], 2);
        assert_eq!(kernel.class(), KernelClass::Single);
        let mut state = CVector::basis_state(4, 0b10).into_inner();
        kernel.apply(&mut state, &mut Vec::new());
        assert!((state[0b00].re - 0.3f64.sqrt()).abs() < 1e-12);
        assert!(exact_zero(state[0b10]));
    }

    #[test]
    fn generic_matches_apply_gate_inplace_bitwise() {
        // The dense fallback must reproduce the legacy work-horse exactly
        // (not just approximately): same gather order, same accumulation.
        let mut rng = StdRng::seed_from_u64(33);
        let n = 4;
        let dim = 1 << n;
        let mut scratch = Vec::new();
        for _ in 0..8 {
            let qubits = distinct_qubits(&mut rng, 2, n);
            let g = Gate::Cu3(
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.0..3.0),
            );
            let state = random_state(&mut rng, dim);
            let mut fast = state.clone().into_inner();
            Kernel::from_matrix(&g.matrix(), &qubits, n).apply(&mut fast, &mut scratch);
            let mut slow = state.clone();
            crate::circuit::apply_gate_inplace(&mut slow, &g.matrix(), &qubits, n);
            assert_eq!(fast, slow.into_inner(), "generic kernel drifted");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_state_dimension() {
        let k = Kernel::for_gate(&Gate::H, &[0], 2);
        let mut state = vec![C64::zero(); 2];
        k.apply(&mut state, &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn rejects_duplicate_qubits() {
        let _ = Kernel::for_gate(&Gate::Cx, &[1, 1], 2);
    }

    #[test]
    fn class_names() {
        assert_eq!(KernelClass::Single.name(), "single");
        assert_eq!(KernelClass::Diagonal.name(), "diagonal");
        assert_eq!(KernelClass::Permutation.name(), "permutation");
        assert_eq!(KernelClass::Monomial.name(), "monomial");
        assert_eq!(KernelClass::Generic.name(), "generic");
        assert_eq!(KernelClass::Fused.name(), "fused");
        // `histogram` indexes its counts by discriminant.
        for (i, &class) in KernelClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    /// Fused single-qubit chains must be bit-for-bit equal to applying
    /// the constituent kernels back-to-back — the loop-fusion contract.
    #[test]
    fn fused_single_qubit_chain_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(55);
        let n = 6;
        let dim = 1 << n;
        for q in [0usize, 3, 5] {
            let chain = [
                Gate::H,
                Gate::T,
                Gate::Ry(rng.gen_range(-2.0..2.0)),
                Gate::S,
                Gate::U3(0.3, -0.7, 1.1),
            ];
            let kernels: Vec<Kernel> = chain.iter().map(|g| Kernel::for_gate(g, &[q], n)).collect();
            let mut fused = kernels[0].clone();
            for k in &kernels[1..] {
                fused = fused.fuse(k).expect("single-qubit chain must fuse");
            }
            assert_eq!(fused.class(), KernelClass::Fused);
            assert_eq!(fused.fused_stages(), chain.len());
            let state = random_state(&mut rng, dim);
            let mut seq = state.clone().into_inner();
            let mut scratch = Vec::new();
            for k in &kernels {
                k.apply(&mut seq, &mut scratch);
            }
            let mut one = state.into_inner();
            fused.apply(&mut one, &mut scratch);
            assert_eq!(seq, one, "fused chain on qubit {q} drifted");
        }
    }

    /// Fused multi-qubit diagonal chains (same tuple) are bit-identical
    /// to sequential application too.
    #[test]
    fn fused_diagonal_chain_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(56);
        let n = 6;
        let dim = 1 << n;
        let qs = [1usize, 4];
        let a = Kernel::for_gate(&Gate::Cp(0.7), &qs, n);
        let b = Kernel::for_gate(&Gate::Crz(-1.2), &qs, n);
        let c = Kernel::for_gate(&Gate::Cz, &qs, n);
        let fused = a.fuse(&b).unwrap().fuse(&c).unwrap();
        assert_eq!(fused.class(), KernelClass::Fused);
        assert_eq!(fused.fused_stages(), 3);
        let state = random_state(&mut rng, dim);
        let mut seq = state.clone().into_inner();
        let mut scratch = Vec::new();
        for k in [&a, &b, &c] {
            k.apply(&mut seq, &mut scratch);
        }
        let mut one = state.into_inner();
        fused.apply(&mut one, &mut scratch);
        assert_eq!(seq, one, "fused diagonal chain drifted");
    }

    #[test]
    fn unfusible_pairs_are_rejected() {
        let n = 4;
        let h0 = Kernel::for_gate(&Gate::H, &[0], n);
        let h1 = Kernel::for_gate(&Gate::H, &[1], n);
        let cx = Kernel::for_gate(&Gate::Cx, &[0, 1], n);
        let cz01 = Kernel::for_gate(&Gate::Cz, &[0, 1], n);
        let cz12 = Kernel::for_gate(&Gate::Cz, &[1, 2], n);
        let ch = Kernel::for_gate(&Gate::Ch, &[0, 1], n);
        assert!(h0.fuse(&h1).is_none(), "different qubits must not fuse");
        assert!(h0.fuse(&cx).is_none(), "permutation must not fuse");
        assert!(cz01.fuse(&cz12).is_none(), "different tuples must not fuse");
        assert!(cz01.fuse(&ch).is_none(), "dense factor must not fuse");
        assert!(
            h0.fuse(&Kernel::for_gate(&Gate::H, &[0], 5)).is_none(),
            "different register widths must not fuse"
        );
    }

    /// The threaded sweep must be bit-for-bit equal to the sequential
    /// sweep for every kernel class, at several thread counts, above the
    /// engagement threshold.
    #[test]
    fn apply_threaded_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(57);
        let n = PARALLEL_THRESHOLD_QUBITS + 1;
        let dim = 1 << n;
        let h = Kernel::for_gate(&Gate::H, &[2], n);
        let t = Kernel::for_gate(&Gate::T, &[7], n);
        let cp = Kernel::for_gate(&Gate::Cp(0.4), &[3, 9], n);
        let ccx = Kernel::for_gate(&Gate::Ccx, &[1, 5, 8], n);
        let cu = Kernel::for_gate(&Gate::Cu3(0.2, 0.5, -0.9), &[4, 10], n);
        let fused = h.fuse(&Kernel::for_gate(&Gate::S, &[2], n)).unwrap();
        let fused_diag = cp
            .fuse(&Kernel::for_gate(&Gate::Crz(1.3), &[3, 9], n))
            .unwrap();
        for kernel in [&h, &t, &cp, &ccx, &cu, &fused, &fused_diag] {
            let state = random_state(&mut rng, dim);
            let mut seq = state.clone().into_inner();
            let mut scratch = Vec::new();
            kernel.apply(&mut seq, &mut scratch);
            for threads in [2usize, 3, 4, 16] {
                let mut par = state.clone().into_inner();
                kernel.apply_threaded(&mut par, &mut Vec::new(), threads);
                assert_eq!(
                    seq,
                    par,
                    "threaded sweep drifted at {threads} threads ({:?})",
                    kernel.class()
                );
            }
        }
    }

    /// Below the threshold the threaded entry point must take the exact
    /// sequential path regardless of the configured thread count.
    #[test]
    fn apply_threaded_below_threshold_is_sequential() {
        let n = PARALLEL_THRESHOLD_QUBITS - 1;
        let k = Kernel::for_gate(&Gate::H, &[0], n);
        let mut rng = StdRng::seed_from_u64(58);
        let state = random_state(&mut rng, 1 << n);
        let mut seq = state.clone().into_inner();
        k.apply(&mut seq, &mut Vec::new());
        let mut par = state.into_inner();
        k.apply_threaded(&mut par, &mut Vec::new(), 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn nth_base_matches_sequential_walk() {
        let dim = 1 << 6;
        for gate_mask in [0b000110usize, 0b100001, 0b010000] {
            let mut base = 0usize;
            let mut ordinal = 0usize;
            loop {
                assert_eq!(nth_base(ordinal, gate_mask, dim), base);
                ordinal += 1;
                base = (base | gate_mask).wrapping_add(1) & !gate_mask;
                if base == 0 || base >= dim {
                    break;
                }
            }
        }
    }

    /// A random (not necessarily pure) Hermitian-ish test matrix; the
    /// conjugation identity holds for arbitrary matrices, so plain random
    /// complex entries suffice.
    fn random_dense(rng: &mut StdRng, d: usize) -> CMatrix {
        CMatrix::from_fn(d, d, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    /// The conjugation pair over vec(ρ) must match the dense
    /// `embed(A)·ρ·embed(A)†` for every kernel class and random placement.
    #[test]
    fn conjugation_pair_matches_dense_sandwich() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 3;
        let d = 1usize << n;
        let gates: Vec<Gate> = vec![
            Gate::H,
            Gate::X,
            Gate::Z,
            Gate::S,
            Gate::Rz(0.9),
            Gate::Ry(-0.4),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ch,
            Gate::Cu3(0.3, 0.2, 0.1),
        ];
        let mut scratch = PairScratch::default();
        for gate in &gates {
            for _ in 0..3 {
                let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
                let rho = random_dense(&mut rng, d);
                let mut fast: Vec<C64> = rho.as_slice().to_vec();
                ConjugationPair::for_gate(gate, &qubits, n).apply(&mut fast, &mut scratch);
                let full = embed(&gate.matrix(), &qubits, n);
                let slow = full.mul(&rho).unwrap().mul(&full.adjoint()).unwrap();
                let fast = CMatrix::new(d, d, fast);
                assert!(
                    fast.max_abs_diff(&slow) < 1e-12,
                    "{gate} on {qubits:?}: conjugation pair diverged from dense sandwich"
                );
            }
        }
    }

    /// Threaded conjugation must be bit-identical to the sequential pair
    /// at any thread count (the register is 2n qubits, so n = 6 clears
    /// the 10-qubit engagement threshold).
    #[test]
    fn conjugation_pair_threaded_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(45);
        let n = 6;
        let d = 1usize << n;
        for gate in [Gate::H, Gate::Cx, Gate::Crz(0.8), Gate::Ch] {
            let qubits = distinct_qubits(&mut rng, gate.num_qubits(), n);
            let pair = ConjugationPair::for_gate(&gate, &qubits, n);
            let rho = random_dense(&mut rng, d);
            let mut seq: Vec<C64> = rho.as_slice().to_vec();
            pair.apply(&mut seq, &mut PairScratch::default());
            for threads in [2usize, 4] {
                let mut par: Vec<C64> = rho.as_slice().to_vec();
                pair.apply_threaded(&mut par, &mut PairScratch::default(), threads);
                assert_eq!(seq, par, "{gate}: threaded conjugation drifted");
            }
        }
    }

    /// Structured gates must keep their cheap classification through the
    /// conjugation lowering — the whole point of the pairing.
    #[test]
    fn conjugation_preserves_kernel_class() {
        assert_eq!(
            ConjugationPair::for_gate(&Gate::X, &[0], 2).class(),
            KernelClass::Permutation
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::Cx, &[0, 1], 2).class(),
            KernelClass::Permutation
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::Rz(0.3), &[1], 2).class(),
            KernelClass::Diagonal
        );
        assert_eq!(
            ConjugationPair::for_gate(&Gate::H, &[0], 2).class(),
            KernelClass::Single
        );
    }
    /// The 16 two-qubit depolarizing Kraus operators `√w · (P ⊗ Q)`.
    fn scaled_pauli_pairs(w: f64) -> Vec<CMatrix> {
        let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z].map(|g| g.matrix());
        let mut ops = Vec::new();
        for a in &paulis {
            for b in &paulis {
                ops.push(a.kron(b).scale(C64::from(w.sqrt())));
            }
        }
        ops
    }

    #[test]
    fn scaled_paulis_lower_to_monomial_and_permutations_stay() {
        let n = 3;
        let classes: Vec<KernelClass> = scaled_pauli_pairs(0.01 / 16.0)
            .iter()
            .map(|k| Kernel::from_matrix(k, &[2, 0], n).class())
            .collect();
        // II, IZ, ZI, ZZ are diagonal; the other twelve are monomial.
        for (i, class) in classes.iter().enumerate() {
            let diagonal = [0, 3, 12, 15].contains(&i);
            let expect = if diagonal {
                KernelClass::Diagonal
            } else {
                KernelClass::Monomial
            };
            assert_eq!(*class, expect, "Pauli pair {i}");
        }
        // Unscaled 0/1 permutations keep their move-only class, and k = 1
        // scaled Paulis keep the butterfly.
        for (gate, qubits) in [(Gate::Cx, vec![0, 1]), (Gate::Swap, vec![2, 1])] {
            let k = Kernel::for_gate(&gate, &qubits, n);
            assert_eq!(k.class(), KernelClass::Permutation);
        }
        let xx = Gate::X.matrix().kron(&Gate::X.matrix());
        assert_eq!(
            Kernel::from_matrix(&xx, &[0, 2], n).class(),
            KernelClass::Permutation
        );
        let scaled_x = Gate::X.matrix().scale(C64::from(0.1));
        assert_eq!(
            Kernel::from_matrix(&scaled_x, &[1], n).class(),
            KernelClass::Single
        );
        assert_eq!(
            Kernel::for_gate(&Gate::Cy, &[0, 1], n).class(),
            KernelClass::Monomial
        );
        assert_eq!(Kernel::for_gate(&Gate::Cy, &[0, 1], n).as_clifford(), None);
    }

    /// The same matrix lowered to the dense fallback body.
    fn as_generic(kernel: &Kernel, matrix: &CMatrix) -> Kernel {
        let Body::Monomial {
            offsets, gate_mask, ..
        } = &kernel.body
        else {
            panic!("expected a monomial kernel");
        };
        Kernel {
            body: Body::Generic {
                matrix: matrix.clone(),
                offsets: offsets.clone(),
                gate_mask: *gate_mask,
            },
            dim: kernel.dim,
        }
    }

    /// `Monomial` must agree with the dense embedding, and with the
    /// `Generic` body up to the sign of zero (`==` on `f64` treats `±0.0`
    /// as equal and nothing else).
    #[test]
    fn monomial_matches_embed_and_generic() {
        let mut rng = StdRng::seed_from_u64(61);
        let n = 5;
        let dim = 1 << n;
        let mut ops = scaled_pauli_pairs(0.3);
        ops.push(Gate::Cy.matrix());
        ops.push(
            Gate::Ccx
                .matrix()
                .scale(C64::new(0.6, -0.8))
                .mul(&Gate::Ccz.matrix())
                .unwrap(),
        );
        let mut scratch = Vec::new();
        for m in &ops {
            let k = (m.rows() as f64).log2() as usize;
            let qubits = distinct_qubits(&mut rng, k, n);
            let kernel = Kernel::from_matrix(m, &qubits, n);
            if kernel.class() != KernelClass::Monomial {
                continue;
            }
            let state = random_state(&mut rng, dim);
            let mut fast = state.clone().into_inner();
            kernel.apply(&mut fast, &mut scratch);
            let slow = embed(m, &qubits, n).mul_vec(&state);
            assert!(CVector::new(fast.clone()).approx_eq(&slow, 1e-12));
            let mut dense = state.into_inner();
            as_generic(&kernel, m).apply(&mut dense, &mut scratch);
            assert_eq!(fast, dense, "monomial on {qubits:?} drifted from generic");
        }
    }

    /// Threaded `Monomial` sweeps are bitwise equal to the sequential one.
    #[test]
    fn threaded_monomial_matches_sequential_bitwise() {
        let mut rng = StdRng::seed_from_u64(62);
        let n = PARALLEL_THRESHOLD_QUBITS + 1;
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (i, m) in scaled_pauli_pairs(0.2).iter().enumerate().skip(1) {
            let qubits = distinct_qubits(&mut rng, 2, n);
            let kernel = Kernel::from_matrix(m, &qubits, n);
            if kernel.class() != KernelClass::Monomial {
                continue;
            }
            let state = random_state(&mut rng, 1 << n).into_inner();
            let mut seq = state.clone();
            kernel.apply(&mut seq, &mut Vec::new());
            for threads in [2usize, 4] {
                let mut par = state.clone();
                kernel.apply_threaded(&mut par, &mut Vec::new(), threads);
                assert_eq!(bits(&seq), bits(&par), "pair {i} at {threads} threads");
            }
        }
    }
}
