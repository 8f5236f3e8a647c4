//! Compiled density engine ↔ dense-walker identity: for any circuit, noise
//! model and seed, the kernelized conjugation path
//! ([`DensityMatrixSimulator::run`] / `evolve` / `outcome_distribution`)
//! must match the legacy dense-matrix instruction walker
//! ([`DensityMatrixSimulator::run_interpreted`] and friends) bit-for-bit:
//! `evolve` up to the sign of zero (`max_abs_diff == 0.0`), distributions
//! and counts exactly. This is the density extension of the
//! seed-compatibility contract in DESIGN.md; noisy campaign cells rely on
//! it to keep fixed-seed reports byte-stable across the engine change.

use qra_circuit::{Circuit, Gate};
use qra_sim::{DensityMatrixSimulator, DevicePreset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pushes a random gate drawn from all four kernel classes.
fn push_random_gate(c: &mut Circuit, rng: &mut StdRng, n: usize) {
    let q0 = rng.gen_range(0..n);
    let mut q1 = rng.gen_range(0..n);
    while q1 == q0 {
        q1 = rng.gen_range(0..n);
    }
    match rng.gen_range(0..10u32) {
        // Single-qubit butterflies.
        0 => c.h(q0),
        1 => c.ry(rng.gen_range(0.0..3.0), q0),
        // Diagonals.
        2 => c.t(q0),
        3 => c.rz(rng.gen_range(0.0..3.0), q0),
        4 => c.cz(q0, q1),
        // Permutations.
        5 => c.x(q0),
        6 => c.cx(q0, q1),
        7 => c.swap(q0, q1),
        // Generic fallbacks.
        8 => c.ch(q0, q1),
        _ => c.cu3(
            rng.gen_range(0.0..3.0),
            rng.gen_range(0.0..3.0),
            rng.gen_range(0.0..3.0),
            q0,
            q1,
        ),
    };
}

/// Asserts all three observable surfaces agree between the compiled path
/// and the interpreted reference at a fixed seed.
fn assert_identical(sim: &DensityMatrixSimulator, c: &Circuit, shots: u64, seed: u64, ctx: &str) {
    let fast_rho = sim.evolve(c).unwrap();
    let slow_rho = sim.evolve_interpreted(c).unwrap();
    assert_eq!(
        fast_rho.max_abs_diff(&slow_rho),
        0.0,
        "{ctx}: evolve diverged beyond the sign of zero"
    );
    let fast_dist = sim.outcome_distribution(c).unwrap();
    let slow_dist = sim.outcome_distribution_interpreted(c).unwrap();
    assert_eq!(fast_dist, slow_dist, "{ctx}: distributions diverged");
    let fast = sim.run(c, shots, seed).unwrap();
    let slow = sim.run_interpreted(c, shots, seed).unwrap();
    assert_eq!(fast, slow, "{ctx}: counts diverged");
}

fn melbourne() -> DensityMatrixSimulator {
    DensityMatrixSimulator::with_noise(DevicePreset::melbourne_like())
}

#[test]
fn noisy_bell_is_bit_identical() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    c.measure_all();
    assert_identical(&melbourne(), &c, 4096, 7, "bell/melbourne");
    assert_identical(
        &DensityMatrixSimulator::new(),
        &c,
        4096,
        7,
        "bell/noiseless",
    );
}

#[test]
fn noisy_ghz_is_bit_identical() {
    for n in [3, 4, 5] {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        assert_identical(&melbourne(), &c, 2048, 11, &format!("ghz{n}/melbourne"));
    }
}

#[test]
fn mid_circuit_measurement_is_bit_identical() {
    // H, measure, H, measure with readout confusion: the coalesce path.
    let mut c = Circuit::with_clbits(2, 3);
    c.h(0).cx(0, 1);
    c.measure(0, 0).unwrap();
    c.h(0);
    c.measure(0, 1).unwrap();
    c.measure(1, 2).unwrap();
    assert_identical(&melbourne(), &c, 2048, 23, "mid-circuit/melbourne");
}

#[test]
fn reset_circuits_are_bit_identical() {
    let mut c = Circuit::with_clbits(3, 3);
    c.h(0).cx(0, 1).cx(1, 2);
    c.reset(1).unwrap();
    c.h(1);
    c.measure(0, 0).unwrap();
    c.measure(1, 1).unwrap();
    c.measure(2, 2).unwrap();
    assert_identical(&melbourne(), &c, 2048, 31, "reset/melbourne");
    assert_identical(
        &DensityMatrixSimulator::with_noise(DevicePreset::LowNoise.noise_model()),
        &c,
        2048,
        31,
        "reset/low",
    );
}

#[test]
fn arbitrary_unitary_gates_are_bit_identical() {
    // Gate::Unitary lowers through the matrix-borrow path of
    // ConjugationPair::for_gate.
    let mut c = Circuit::new(3);
    c.h(0);
    let m = Gate::Crx(1.1).matrix();
    c.unitary(m, &[0, 2], "crx-custom").unwrap();
    c.cx(1, 2);
    c.measure_all();
    assert_identical(&melbourne(), &c, 1024, 5, "unitary/melbourne");
}

/// Random circuits over all kernel classes, with random mid-circuit
/// measurements and resets, under every preset: the fuzzing analogue of
/// `compiled_identity.rs`.
#[test]
fn random_noisy_circuits_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(404);
    for trial in 0..8 {
        let n = rng.gen_range(2..5);
        let clbits = rng.gen_range(2..5);
        let mut c = Circuit::with_clbits(n, clbits);
        for _ in 0..rng.gen_range(2..8) {
            push_random_gate(&mut c, &mut rng, n);
        }
        for _ in 0..rng.gen_range(1..5) {
            match rng.gen_range(0..4u32) {
                0 => {
                    c.measure(rng.gen_range(0..n), rng.gen_range(0..clbits))
                        .unwrap();
                }
                1 => {
                    c.reset(rng.gen_range(0..n)).unwrap();
                }
                _ => push_random_gate(&mut c, &mut rng, n),
            }
        }
        c.measure(rng.gen_range(0..n), rng.gen_range(0..clbits))
            .unwrap();
        let seed = rng.gen_range(0..1_000_000);
        for preset in DevicePreset::ALL {
            let sim = DensityMatrixSimulator::with_noise(preset.noise_model());
            assert_identical(&sim, &c, 512, seed, &format!("trial {trial}/{preset}"));
        }
    }
}

/// Scaled noise exercises non-preset rates (including saturated readout).
#[test]
fn scaled_noise_is_bit_identical() {
    let mut c = Circuit::with_clbits(2, 2);
    c.h(0).cx(0, 1);
    c.measure(0, 0).unwrap();
    c.x(0);
    c.measure(0, 1).unwrap();
    for factor in [0.5, 2.0, 100.0] {
        let noise = DevicePreset::melbourne_like().scaled(factor);
        let sim = DensityMatrixSimulator::with_noise(noise);
        assert_identical(&sim, &c, 1024, 13, &format!("scaled x{factor}"));
    }
}

/// The compiled sampler must keep the exact RNG draw sequence of the
/// linear scan: same seed, same number of `gen_range(0.0..total)` draws.
/// A circuit with an empty classical register (no measurements) still
/// samples the single key-0 branch per shot, like the interpreter.
#[test]
fn unmeasured_circuit_is_bit_identical() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    let sim = melbourne();
    let fast = sim.run(&c, 256, 3).unwrap();
    let slow = sim.run_interpreted(&c, 256, 3).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.count(0), 256);
}

/// The compiled engine's ceiling is 12 qubits (up from the walker's
/// historical 10): a 12-qubit circuit compiles and runs on both paths, a
/// 13-qubit one fails with the structured error on both.
#[test]
fn qubit_ceiling_is_twelve_on_both_paths() {
    use qra_sim::SimError;
    // Gateless: a 4096-dim dense gate embed would dominate debug CI time;
    // state preparation + distribution alone exercise the 12-qubit paths.
    let sim = DensityMatrixSimulator::new();
    let c = Circuit::new(12);
    let counts = sim.run(&c, 4, 1).unwrap();
    assert_eq!(counts, sim.run_interpreted(&c, 4, 1).unwrap());
    let too_big = Circuit::new(13);
    for result in [sim.run(&too_big, 1, 1), sim.run_interpreted(&too_big, 1, 1)] {
        assert!(matches!(
            result,
            Err(SimError::TooManyQubits {
                num_qubits: 13,
                max: 12
            })
        ));
    }
}

/// Ideal noise on one simulator must agree with `NoiseModel::ideal()` on
/// another — compile bakes the noise model in, so this pins the baking.
#[test]
fn compiled_program_carries_its_noise_model() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    c.measure_all();
    let noisy = melbourne();
    let program = noisy.compile(&c).unwrap();
    // Executing the noisy program through an ideal simulator handle uses
    // the program's baked-in noise, matching the noisy interpreted run.
    let via_ideal_handle = DensityMatrixSimulator::new()
        .run_compiled(&program, 1024, 17)
        .unwrap();
    let reference = noisy.run_interpreted(&c, 1024, 17).unwrap();
    assert_eq!(via_ideal_handle, reference);
}

/// Amplitude-level threading over vec(ρ) must be invisible in every
/// observable: for a fixed seed, counts, distributions and evolved
/// density matrices are identical at every thread count. A 6-qubit
/// register vectorizes to dim 4096, clearing the kernel parallel
/// threshold so the threaded conjugation sweeps genuinely engage.
#[test]
fn thread_matrix_density_is_bit_identical() {
    let n = 6;
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.ry(0.2 * (q + 1) as f64, q);
    }
    c.measure_all();
    let base_sim = melbourne();
    let base_counts = base_sim.run(&c, 512, 77).unwrap();
    let base_dist = base_sim.outcome_distribution(&c).unwrap();
    let base_rho = base_sim.evolve(&c).unwrap();
    for threads in [1usize, 2, 4] {
        let sim = melbourne().with_threads(threads);
        assert_eq!(
            base_counts,
            sim.run(&c, 512, 77).unwrap(),
            "threads = {threads}: counts diverged"
        );
        assert_eq!(
            base_dist,
            sim.outcome_distribution(&c).unwrap(),
            "threads = {threads}: distribution diverged"
        );
        assert_eq!(
            base_rho.max_abs_diff(&sim.evolve(&c).unwrap()),
            0.0,
            "threads = {threads}: evolved state diverged"
        );
    }
}

/// Threaded mid-circuit density execution: branch splitting, staged
/// compaction and reset flips all route through the threaded kernels,
/// and none of it may leak into the results.
#[test]
fn thread_matrix_density_mid_circuit_is_bit_identical() {
    let mut c = Circuit::with_clbits(5, 6);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
    c.measure(4, 5).unwrap();
    c.reset(4).unwrap();
    c.cx(3, 4);
    for q in 0..5 {
        c.measure(q, q).unwrap();
    }
    let base = melbourne().run(&c, 256, 88).unwrap();
    for threads in [2usize, 4] {
        let counts = melbourne().with_threads(threads).run(&c, 256, 88).unwrap();
        assert_eq!(base, counts, "threads = {threads}");
    }
}

/// A GHZ-4 SWAP-assertion-shaped cell: the four data qubits carry a noisy
/// GHZ preparation while the four ancillas — interleaved with them, so the
/// compact prefix register widens in the middle — stay untouched until
/// the CXs that swap the data into them at the end, and only the ancillas
/// are measured.
fn late_ancilla_swap_cell() -> Circuit {
    let data = [1usize, 2, 5, 6];
    let ancillas = [0usize, 3, 4, 7];
    let mut c = Circuit::with_clbits(8, 4);
    c.h(data[0]);
    for w in data.windows(2) {
        c.cx(w[0], w[1]);
    }
    c.ry(0.3, data[2]);
    for (&d, &a) in data.iter().zip(&ancillas) {
        c.cx(d, a).cx(a, d);
    }
    for (i, &a) in ancillas.iter().enumerate() {
        c.measure(a, i).unwrap();
    }
    c
}

#[test]
fn late_ancilla_swap_cell_is_bit_identical() {
    let c = late_ancilla_swap_cell();
    for preset in [DevicePreset::LowNoise, DevicePreset::MelbourneLike] {
        let sim = DensityMatrixSimulator::with_noise(preset.noise_model());
        assert_identical(&sim, &c, 1024, 41, &format!("late-ancilla swap/{preset}"));
    }
}

/// Threaded execution of the late-ancilla cell, and of the cell with a gate
/// after its measurements (so threaded suffix kernels engage on the
/// 8-qubit `vec(ρ)`), matches the single-threaded run in every observable.
#[test]
fn thread_matrix_late_ancilla_swap_cell_is_bit_identical() {
    let mut tail = late_ancilla_swap_cell();
    tail.h(1);
    for c in [late_ancilla_swap_cell(), tail] {
        for preset in [DevicePreset::LowNoise, DevicePreset::MelbourneLike] {
            let base = DensityMatrixSimulator::with_noise(preset.noise_model());
            let program = base.compile(&c).unwrap();
            let counts = base.run_compiled(&program, 512, 43).unwrap();
            let dist = base.outcome_distribution_compiled(&program).unwrap();
            let rho = base.evolve_compiled(&program).unwrap();
            for threads in [2usize, 4] {
                let sim =
                    DensityMatrixSimulator::with_noise(preset.noise_model()).with_threads(threads);
                let ctx = format!("{preset}, threads = {threads}");
                let run = sim.run_compiled(&program, 512, 43).unwrap();
                assert_eq!(counts, run, "{ctx}: counts");
                let run_dist = sim.outcome_distribution_compiled(&program).unwrap();
                assert_eq!(dist, run_dist, "{ctx}: dist");
                let run_rho = sim.evolve_compiled(&program).unwrap();
                assert_eq!(rho.max_abs_diff(&run_rho), 0.0, "{ctx}: rho");
            }
        }
    }
}

/// Qubit 2 is first touched after a measurement (a post-prefix op on the
/// full-width register) and qubit 3 is never touched (left in `|0⟩` by
/// the final widening of the compact prefix).
#[test]
fn late_and_untouched_qubits_are_bit_identical() {
    let mut c = Circuit::with_clbits(4, 3);
    c.h(0).cx(0, 1);
    c.measure(0, 0).unwrap();
    c.cx(1, 2).h(2);
    c.measure(1, 1).unwrap();
    c.measure(2, 2).unwrap();
    for preset in [DevicePreset::LowNoise, DevicePreset::MelbourneLike] {
        let sim = DensityMatrixSimulator::with_noise(preset.noise_model());
        assert_identical(&sim, &c, 1024, 47, &format!("late/untouched {preset}"));
    }
}
