"""Acceptance checks: one test per shipped guarantee.

Each test prints a single `criterion N: PASS/FAIL - detail` line (visible
under `pytest -s`) and then asserts, so the suite doubles as a sign-off
report for the numbers promised in the README.
"""

import math

import numpy as np

from paqsim import (
    CNOT,
    CP,
    HADAMARD,
    PHASE,
    X90,
    EnsembleConfig,
    GhzTopology,
    ParseError,
    Perfect,
    PulseSpec,
    basis_avg_gate_fidelity,
    efficiency_basis_avg,
    gaussian_cloud,
    ghz_dense_eval,
    ghz_transfer_eval,
    hwp,
    lossy_cnot,
    max_depth,
    parse_circuit,
    parse_timeline,
    process_fidelity_postselected,
    qwp,
    run_timeline,
    scheme1_cp_matrix,
    scheme1_cp_micro,
    scheme2_cp_matrix,
    two_level_propagator,
    TimelineProgram,
)
from paqsim.cli import ANCHORS, main

import _corpus
from _corpus import serialize_circuit, serialize_timeline
from _oracles import (
    distance_up_to_global_phase,
    fit_pair_frequency,
    haar_avg_gate_fidelity,
)


def _near(computed: float, label: str) -> bool:
    """The CLI's anchor verdict: within the bound of the ANCHORS reference."""
    reference, bound = ANCHORS[label]
    return abs(computed - reference) <= bound


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_cnot_efficiency():
    eff = efficiency_basis_avg(lossy_cnot(0.33))
    ok = _near(eff, "eta=0.33 efficiency")
    worst = 0.0
    for k in range(11):
        eta = k / 10.0
        diff = abs(efficiency_basis_avg(lossy_cnot(eta)) - (1.0 + eta) ** 2 / 4.0)
        worst = max(worst, diff)
    ok = ok and worst <= 1e-12
    _report(1, ok, f"efficiency(0.33) = {eff:.6f}, closed-form gap <= {worst:.2e}")


def test_criterion_02_cnot_fidelity():
    basis = basis_avg_gate_fidelity(lossy_cnot(0.33), CNOT)
    ok = _near(basis, "eta=0.33 fidelity_basis")

    haar = haar_avg_gate_fidelity(lossy_cnot(0.33), CNOT, samples=100_000, seed=0)
    ok = ok and 0.88 < haar.value < 0.94
    pin = 0.893095  # converged oracle value (2e6 samples, three seeds)
    ok = ok and abs(haar.value - pin) <= 3.0 * haar.stderr

    basis_one = basis_avg_gate_fidelity(lossy_cnot(1.0), CNOT)
    haar_one = haar_avg_gate_fidelity(lossy_cnot(1.0), CNOT, samples=2000, seed=0)
    ok = ok and basis_one == 1.0 and haar_one.value == 1.0

    grid = [0.01 * k for k in range(1, 101)]
    basis_vals = [basis_avg_gate_fidelity(lossy_cnot(e), CNOT) for e in grid]
    monotone_basis = all(a <= b + 1e-15 for a, b in zip(basis_vals, basis_vals[1:]))
    haar_vals = [
        haar_avg_gate_fidelity(lossy_cnot(0.1 * k), CNOT, samples=20_000, seed=0).value
        for k in range(1, 11)
    ]
    monotone_haar = all(a <= b for a, b in zip(haar_vals, haar_vals[1:]))
    ok = ok and monotone_basis and monotone_haar
    _report(
        2,
        ok,
        f"basis(0.33) = {basis:.6f}, haar(0.33) = {haar.value:.6f} "
        f"+/- {haar.stderr:.1e} (pin {pin}), both exactly 1 at eta=1, "
        f"monotone basis/haar: {monotone_basis}/{monotone_haar}",
    )


def test_criterion_03_ghz3_threshold():
    fid, eff = ghz_dense_eval(3, 0.58, GhzTopology.STAR)
    ok = _near(eff, "ghz3 eta=0.58 efficiency") and _near(fid, "ghz3 eta=0.58 fidelity")
    first = None
    for k in range(50, 71):
        eta = k / 100.0
        f, _ = ghz_dense_eval(3, eta, GhzTopology.STAR)
        if f >= 0.9:
            first = eta
            break
    ok = ok and first is not None and 0.57 - 1e-9 <= first <= 0.59 + 1e-9
    _report(
        3,
        ok,
        f"dense star eta=0.58: fidelity {fid:.4f}, efficiency {eff:.4f}; "
        f"first grid eta with fidelity >= 0.9 is {first}",
    )


def test_criterion_04_ghz100():
    fid = ghz_transfer_eval(100, 0.9, GhzTopology.STAR)[0]
    ok = _near(fid, "ghz100 eta=0.9 fidelity") and fid > 0.47
    _report(4, ok, f"transfer star n=100 eta=0.9: fidelity {fid:.6f} (> 0.47)")


def test_criterion_05_dense_transfer_equivalence():
    worst_f = worst_e = 0.0
    for n in range(2, 11):
        for eta in (0.3, 0.58, 0.9):
            for topo in (GhzTopology.STAR, GhzTopology.CHAIN):
                fd, ed = ghz_dense_eval(n, eta, topo)
                ft, et = ghz_transfer_eval(n, eta, topo)
                worst_f = max(worst_f, abs(fd - ft))
                worst_e = max(worst_e, abs(ed - et))
    ok = worst_f <= 1e-10 and worst_e <= 1e-10
    _report(
        5,
        ok,
        f"54 dense-vs-transfer cases: max fidelity gap {worst_f:.2e}, "
        f"max efficiency gap {worst_e:.2e}",
    )


def test_criterion_06_atom_level_gate():
    kvec = np.array([8.0, 0.0, 0.0])
    control = EnsembleConfig(gaussian_cloud(3, 1.0, seed=1), kvec)
    target = EnsembleConfig(
        gaussian_cloud(3, 1.0, seed=2) + np.array([5.0, 0.0, 0.0]), kvec
    )
    gate = scheme1_cp_micro(1.0, Perfect(), control, target)
    dist = float(np.max(np.abs(gate.entries - CP.entries)))
    diag = np.real(np.diag(gate.entries))
    ok = dist < 1e-12 and abs(gate.entries[3, 3] + 1.0) < 1e-12
    _report(
        6,
        ok,
        f"three-pulse protocol on all four basis inputs: phases "
        f"({diag[0]:+.0f},{diag[1]:+.0f},{diag[2]:+.0f},{diag[3]:+.0f}), "
        f"max deviation {dist:.2e} (blocked |11> included)",
    )


def test_criterion_07_pair_pulse_numbers():
    gate = scheme2_cp_matrix(1.0)
    single = gate.entries[1, 1]
    pair = gate.entries[3, 3].real
    leak = 1.0 - abs(gate.entries[3, 3]) ** 2
    exact_leak = 1.0 - math.cos(5.0 * math.sqrt(2.0) * math.pi) ** 2

    ok = single == -1.0
    ok = ok and _near(pair, "scheme2 pair return")
    ok = ok and abs(leak - exact_leak) <= 1e-12
    ok = ok and _near(leak, "scheme2 leakage")

    freq_ok = all(
        abs(fit_pair_frequency(b) / math.sqrt(2.0) - 1.0) <= 0.01
        for b in (100.0, 300.0, 1000.0)
    )
    ok = ok and freq_ok

    # definitional spread: post-selected readings stay near/above 0.999,
    # loss-inclusive readings do not
    basis = basis_avg_gate_fidelity(gate, CP)
    haar = haar_avg_gate_fidelity(gate, CP, samples=20_000, seed=0).value
    process = process_fidelity_postselected(gate, CP)
    d = CP.entries.conj().T @ gate.entries
    loss_basis = float(np.mean(np.abs(np.diag(d)) ** 2))
    loss_haar = (abs(np.trace(d)) ** 2 + np.trace(d.conj().T @ d).real) / 20.0
    ok = ok and basis == 1.0 and haar > 0.999 and process > 0.999
    ok = ok and loss_basis < 0.999 and loss_haar < 0.999
    _report(
        7,
        ok,
        f"single return {single.real:+.1f}, pair return {pair:.6f}, "
        f"leakage {leak:.8f}, fit within 1% of sqrt(2); post-selected "
        f"basis/haar/process = {basis:.1f}/{haar:.6f}/{process:.6f} vs "
        f"loss-inclusive {loss_basis:.6f}/{loss_haar:.6f}",
    )


def test_criterion_08_blockade_limits():
    ok = True
    zero_detail = []
    for eta in (1.0, 0.33):
        entry = scheme1_cp_matrix(eta, 0.0).entries[3, 3]
        ok = ok and abs(entry - eta) < 1e-12
        zero_detail.append(f"{entry.real:+.2f}")
    worst = 0.0
    phase = 0.0
    for eta in (1.0, 0.33):
        for b in (150.0, 200.0, 300.0, 500.0, 1000.0):
            entry = scheme1_cp_matrix(eta, b).entries[3, 3]
            worst = max(worst, abs(abs(entry) - eta))
            ok = ok and abs(abs(entry) - eta) <= 1e-4 and entry.real < 0.0
            if b == 150.0 and eta == 1.0:
                phase = abs(math.atan2(entry.imag, -entry.real))
    leak = abs(two_level_propagator(
        PulseSpec(2.0 * math.pi, detuning_over_rabi=1000.0)
    ).entries[1, 0]) ** 2
    ok = ok and leak <= 1e-6
    _report(
        8,
        ok,
        f"B=0 entries {zero_detail}, magnitude defect <= {worst:.2e} for "
        f"B >= 150 (residual phase {phase:.4f} rad at B=150), detuned "
        f"leakage {leak:.2e}",
    )


def test_criterion_09_plate_identities():
    dists = (
        distance_up_to_global_phase(qwp(90.0).entries, PHASE.entries),
        distance_up_to_global_phase(qwp(45.0).entries, X90.entries),
        distance_up_to_global_phase(hwp(22.5).entries, HADAMARD.entries),
    )
    eye = np.eye(2, dtype=complex)
    px = PHASE.entries @ X90.entries
    xp = X90.entries @ PHASE.entries
    product = np.kron(eye, px) @ CP.entries @ np.kron(eye, xp)
    decomp = distance_up_to_global_phase(product, CNOT.entries)
    worst = max(*dists, decomp)
    _report(
        9,
        worst < 1e-12,
        f"qwp90~P, qwp45~X90, hwp22.5~H, plate-decomposed CNOT: "
        f"max distance {worst:.2e}",
    )


def test_criterion_10_depth_law():
    ok = max_depth(0.9, 0.1, 1) == 21

    # d * n * (-ln eta) stays within one memory cycle of ln(1/p)
    band_ok = True
    for p in (0.1, 0.01):
        budget = math.log(1.0 / p)
        for k in range(99):
            eta = 0.5 + 0.005 * k
            loss = -math.log(eta)
            for n in (1, 2):
                spent = n * max_depth(eta, p, n) * loss
                band_ok = band_ok and spent <= budget + 1e-9
                band_ok = band_ok and spent > budget - n * loss - 1e-9
    ok = ok and band_ok

    worst = 0.0
    for n_qms, steps, eta in ((1, 21, 0.9), (2, 5, 0.77), (3, 4, 0.6)):
        program = TimelineProgram(
            n_qms,
            tuple((float(i), 0.0) for i in range(n_qms)),
            ((),) * steps,
        )
        trace = run_timeline(program, eta)
        worst = max(
            worst, abs(trace.cumulative_success - eta ** (n_qms * steps))
        )
    ok = ok and worst <= 1e-12
    _report(
        10,
        ok,
        f"max_depth(0.9, 0.1) = 21, depth-times-loss band holds over "
        f"eta in [0.5, 0.99], identity survival gap <= {worst:.2e}",
    )


def test_criterion_11_determinism_and_parsing(capsys):
    sweep = ["cnot-sweep", "--eta-min", "0.33", "--eta-max", "1.0",
             "--steps", "2", "--samples", "2000"]
    runs = []
    for _ in range(2):
        assert main(list(sweep)) == 0
        runs.append(capsys.readouterr())
    csv_ok = runs[0].out == runs[1].out and runs[0].err == runs[1].err

    ghz = ["ghz", "--n", "4", "--eta", "0.7", "--method", "dense"]
    outs = []
    for _ in range(2):
        assert main(list(ghz)) == 0
        outs.append(capsys.readouterr().out)
    json_ok = outs[0] == outs[1]

    corpus_ok = True
    for seed in range(10):
        circuit = _corpus.random_circuit(seed)
        corpus_ok = corpus_ok and parse_circuit(serialize_circuit(circuit)) == circuit
        program = _corpus.random_timeline(seed)
        corpus_ok = corpus_ok and parse_timeline(serialize_timeline(program)) == program

    try:
        parse_circuit("qubits 1\nfoo 0\n")
        line_ok = False
    except ParseError as exc:
        line_ok = exc.line == 2 and "line 2" in str(exc)

    ok = csv_ok and json_ok and corpus_ok and line_ok
    _report(
        11,
        ok,
        f"byte-identical CSV/JSON: {csv_ok}/{json_ok}, 20-file round-trip "
        f"corpus: {corpus_ok}, parse errors carry line numbers: {line_ok}",
    )
