//! Seeded input generation. Every host program, state spec and argv is a
//! pure function of the workload seed; the program under test only ever
//! sees the generated QASM files and argv.

use qra::circuit::qasm::to_qasm;
use qra::circuit::synthesis::prepare_state;
use qra::circuit::Circuit;
use qra::math::{CVector, C64};
use std::path::Path;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed from a base seed and a tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut rng = Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    rng.next_u64()
}

/// The state families the `assert` requests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    Ghz,
    W,
    Plus,
    Set,
    Amps,
}

impl SpecKind {
    pub const ALL: [SpecKind; 5] = [
        SpecKind::Ghz,
        SpecKind::W,
        SpecKind::Plus,
        SpecKind::Set,
        SpecKind::Amps,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpecKind::Ghz => "ghz",
            SpecKind::W => "w",
            SpecKind::Plus => "plus",
            SpecKind::Set => "set",
            SpecKind::Amps => "amps",
        }
    }
}

/// A state spec on `n` qubits with a host program that prepares a state
/// satisfying it and a host that carries one injected bug the assertion
/// must catch.
#[derive(Debug, Clone)]
pub struct Asserted {
    /// The `--state` argument.
    pub state: String,
    pub correct: Circuit,
    pub buggy: Circuit,
}

/// Builds a spec of `kind` on `n` qubits. The injected bug always moves the
/// state to one orthogonal to every state the spec accepts, so a correct
/// assertion reports it with error rate 1:
/// * GHZ, W, set and amps hosts get a stray X. GHZ and W states have no
///   weight-0/weight-2 support that a single flip could land back in; a
///   set is a complementary pair of basis states, which differ in every
///   bit; amps states are supported on even-parity basis states only, so
///   any flip lands on odd parity.
/// * The |+…+⟩ host gets a stray Z (X leaves it unchanged).
pub fn asserted(kind: SpecKind, n: usize, rng: &mut Rng) -> Result<Asserted, String> {
    let dim = 1usize << n;
    let bug_qubit = rng.below(n);
    let (state, correct) = match kind {
        SpecKind::Ghz => ("ghz".to_string(), qra::algorithms::states::ghz(n)),
        SpecKind::W => ("w".to_string(), qra::algorithms::states::w_state(n)),
        SpecKind::Plus => {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            ("plus".to_string(), c)
        }
        SpecKind::Set => {
            // A random basis state and its bitwise complement. Two members
            // keep the assertion's cost in the basis computation (a third
            // can blow the OR circuit up to ~10⁶ CX at 7 qubits, moving the
            // cost into simulation); a complementary pair costs the same
            // for every seed, and no single flip of one member lands on
            // the other.
            let member = rng.below(dim);
            let host = prepare_state(&CVector::basis_state(dim, member))
                .map_err(|e| format!("set host: {e}"))?;
            (format!("set:{member};{}", member ^ (dim - 1)), host)
        }
        SpecKind::Amps => {
            let amps = even_parity_state(n, rng);
            let host = prepare_state(&CVector::new(amps.clone()))
                .map_err(|e| format!("amps host: {e}"))?;
            let text: Vec<String> = amps.iter().map(|a| format!("{},{}", a.re, a.im)).collect();
            (format!("amps:{}", text.join(";")), host)
        }
    };
    let mut buggy = correct.clone();
    if kind == SpecKind::Plus {
        buggy.z(bug_qubit);
    } else {
        buggy.x(bug_qubit);
    }
    Ok(Asserted {
        state,
        correct,
        buggy,
    })
}

/// A random normalized state supported on even-parity basis states.
fn even_parity_state(n: usize, rng: &mut Rng) -> Vec<C64> {
    let dim = 1usize << n;
    let mut amps: Vec<C64> = (0..dim)
        .map(|i| {
            if i.count_ones() % 2 == 0 {
                C64::new(rng.unit() * 2.0 - 1.0, rng.unit() * 2.0 - 1.0)
            } else {
                C64::new(0.0, 0.0)
            }
        })
        .collect();
    let norm = amps
        .iter()
        .map(|a| a.re * a.re + a.im * a.im)
        .sum::<f64>()
        .sqrt();
    for a in &mut amps {
        *a = C64::new(a.re / norm, a.im / norm);
    }
    amps
}

/// A random measured circuit: layers of single-qubit rotations and a CX
/// ladder, then `measure_all`.
pub fn random_measured(n: usize, layers: usize, rng: &mut Rng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.ry(rng.unit() * std::f64::consts::PI, q);
            c.rz(rng.unit() * std::f64::consts::PI, q);
        }
        for q in 0..n.saturating_sub(1) {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    c
}

/// Writes `circuit` as OpenQASM into `dir/name` and returns the path.
pub fn write_qasm(dir: &Path, name: &str, circuit: &Circuit) -> Result<String, String> {
    let text = to_qasm(circuit).map_err(|e| format!("{name}: {e}"))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// The comma-separated `--qubits` list `0,1,…,n-1`.
pub fn qubit_list(n: usize) -> String {
    (0..n).map(|q| q.to_string()).collect::<Vec<_>>().join(",")
}

/// Builds an owned argv from string slices.
pub fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}
