"""The benchmark's correctness checks pass on real campaign output and fail
on a deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests -q

Workloads run at small sizes here; the checks are the ones the benchmark
runs.
"""

import csv
import dataclasses
import json
import shutil

import numpy as np
import pytest

import workloads
from workloads import CheckError, _pick
from xbarsim import solver

# At 16x16 the sinh-versus-linear separation order is set by the variation
# draw rather than by the wires (it holds on every seed at 128x128, the
# benchmark size); seed 1 is one where it holds at 16x16 too.
SEED = 1

SMALL = {
    "rowmap": lambda: workloads.rowmap(SEED, n=16),
    "powersweep": lambda: workloads.powersweep(SEED, sizes=(8, 16), power_rows=2),
    # The linear 24x24 CDFs overlap as at the benchmark size: best BER 0.26.
    "cellcdf": lambda: workloads.cellcdf(SEED, linear=(24, 96), sinh=(8, 16)),
    "mismatch": lambda: workloads.mismatch(SEED, delta_v=(2e-3,)),
}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Each small workload run once; tests corrupt private copies."""
    done = {}
    for name, make in SMALL.items():
        w = make()
        out = tmp_path_factory.mktemp(name)
        for c in w.campaigns:
            c.run(out)
        done[name] = (w, out)
    return done


@pytest.fixture
def copy_of(produced, tmp_path):
    def copy(name):
        w, out = produced[name]
        dst = tmp_path / name
        shutil.copytree(out, dst)
        return w, dst
    return copy


def edit_csv(path, edit):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def scale(row, key, factor):
    row[key] = repr(float(row[key]) * factor)


def fails(w, out, match):
    with pytest.raises(CheckError, match=match):
        w.check(w, out)


@pytest.fixture
def off_by_a_nanovolt(monkeypatch):
    """Make the checks' direct sparse solves return a wrong voltage."""
    solve = solver.solve

    def wrong(net, *args, **kwargs):
        sol = solve(net, *args, **kwargs)
        v = sol.node_voltages.copy()
        v[np.flatnonzero(~net.fixed_mask)[0]] += 1e-9
        return dataclasses.replace(sol, node_voltages=v)

    monkeypatch.setattr(solver, "solve", wrong)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_uncorrupted_output_passes(produced, name):
    w, out = produced[name]
    w.check(w, out)


# rowmap


def test_rowmap_perturbed_current(copy_of):
    w, out = copy_of("rowmap")
    i = _pick(SEED, 16, 2)[0]

    def edit(rows):
        scale(rows[16 * i + 5], "current_A", 1.01)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"direct solve gives")


def test_rowmap_flipped_read_bit(copy_of):
    w, out = copy_of("rowmap")

    def edit(rows):
        rows[7]["read_bit"] = str(1 - int(rows[7]["read_bit"]))
        return rows

    edit_csv(w.campaigns[1].csv_path(out), edit)
    fails(w, out, r"read bits disagree")


def test_rowmap_flipped_stored_bit(copy_of):
    w, out = copy_of("rowmap")

    def edit(rows):
        rows[3]["true_bit"] = str(1 - int(rows[3]["true_bit"]))
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"seeded pattern")


def test_rowmap_classification_error(copy_of):
    """A misread cell whose current really crossed the threshold."""
    w, out = copy_of("rowmap")

    def edit(rows):
        k = next(k for k, r in enumerate(rows) if r["true_bit"] == "0")
        rows[k]["current_A"] = "1e-6"
        rows[k]["read_bit"] = "1"
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"classification errors")


def test_rowmap_separation_order(copy_of):
    """Lowering every linear HRS current tenfold widens the linear
    separation past the sinh one without misreading any cell."""
    w, out = copy_of("rowmap")

    def edit(rows):
        for r in rows:
            if r["true_bit"] == "0":
                scale(r, "current_A", 0.1)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"not wider than")


def test_kcl_residual_detects_a_wrong_voltage(produced):
    from xbarsim.crossbar import build_network, row_read_bias
    from xbarsim.solver import solve

    w, _ = produced["rowmap"]
    c = w.campaigns[0]
    pattern, cells, _ = workloads._regenerate(c.cfg, 16, 0)
    spec = c.cfg.crossbar.to_spec()
    net = build_network(spec, pattern, cells, row_read_bias(spec, 2))
    v = solve(net).node_voltages.copy()
    assert workloads.solved_kcl(net, v) <= 1e-12
    v[np.flatnonzero(~net.fixed_mask)[10]] += 1e-9
    assert workloads.solved_kcl(net, v) > 1e-12


def test_rowmap_direct_solve_kcl(produced, off_by_a_nanovolt):
    w, out = produced["rowmap"]
    fails(w, out, r"direct solve KCL residual")


# powersweep


def test_powersweep_wire_free_power(copy_of):
    w, out = copy_of("powersweep")

    def edit(rows):
        scale(rows[-1], "power_row_approx_W", 1 + 1e-6)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"closed form")


def test_powersweep_exact_power(copy_of):
    """Every exact power of the smallest arrays lowered alike: still below
    the wire-free bound and monotone, but not the network's power."""
    w, out = copy_of("powersweep")

    def edit(rows):
        for r in rows:
            if r["size"] == "8":
                scale(r, "power_row_exact_W", 1 - 1e-4)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"source power of a direct solve")


def test_powersweep_exact_above_wire_free(copy_of):
    w, out = copy_of("powersweep")

    def edit(rows):
        r = next(r for r in rows if r["model"] == "linear")
        r["power_row_exact_W"] = repr(float(r["power_row_approx_W"]) * 1.001)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"not below the wire-free bound")


def test_powersweep_monotonicity(copy_of):
    w, out = copy_of("powersweep")

    def edit(rows):
        r = next(r for r in rows if r["model"] == "nonlinear" and r["v_b_V"] == "0.9")
        scale(r, "power_row_exact_W", 100.0)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"rises with the hold voltage")


def test_powersweep_summary_flag(copy_of):
    w, out = copy_of("powersweep")
    edit_json(w.campaigns[0].json_path(out),
              lambda d: d["checks"].update(monotone_in_v_b=False))
    fails(w, out, r"summary checks")


# cellcdf


def test_cellcdf_linear_session_current(copy_of):
    w, out = copy_of("cellcdf")
    c = w.campaigns[0]

    def edit(rows):
        scale(rows[_pick(SEED, len(rows), 2)[1]], "current_A", 1 + 1e-4)
        return rows

    edit_csv(c.csv_path(out), edit)
    fails(w, out, r"single-cell solve")


def test_cellcdf_sinh_against_dense_oracle(copy_of):
    w, out = copy_of("cellcdf")
    c = w.campaigns[1]

    def edit(rows):
        scale(rows[_pick(SEED, len(rows), 2)[0]], "current_A", 1 + 1e-6)
        return rows

    edit_csv(c.csv_path(out), edit)
    fails(w, out, r"dense oracle")


def test_cellcdf_missing_sample(copy_of):
    w, out = copy_of("cellcdf")
    edit_csv(w.campaigns[0].csv_path(out), lambda rows: rows[:-1])
    fails(w, out, r"samples, want")


def test_cellcdf_best_ber(copy_of):
    w, out = copy_of("cellcdf")
    edit_json(w.campaigns[0].json_path(out), lambda d: d.update(best_ber=d["best_ber"] + 0.01))
    fails(w, out, r"best BER")


def test_cellcdf_ber_floor(copy_of):
    """LRS currents raised a hundredfold separate the linear CDFs; the
    summary is edited to agree, so only the 0.05 floor trips."""
    w, out = copy_of("cellcdf")
    c = w.campaigns[0]

    def edit(rows):
        for r in rows:
            if r["true_bit"] == "1":
                scale(r, "current_A", 100.0)
        return rows

    edit_csv(c.csv_path(out), edit)
    edit_json(c.json_path(out), lambda d: d.update(best_ber=0.0))
    fails(w, out, r"not above 0.05")


def test_cellcdf_flipped_stored_bit(copy_of):
    w, out = copy_of("cellcdf")

    def edit(rows):
        rows[5]["true_bit"] = str(1 - int(rows[5]["true_bit"]))
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"stored bit of .* differs from the seeded pattern")


def test_cellcdf_duplicate_sample(copy_of):
    w, out = copy_of("cellcdf")

    def edit(rows):
        rows[1] = dict(rows[0])
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"sampled twice")


def test_cellcdf_sparse_dense_gap(produced, off_by_a_nanovolt):
    w, out = produced["cellcdf"]
    fails(w, out, r"sparse and dense voltages differ")


def test_cellcdf_overlap_required():
    """The BER floor has force: well-separated populations fail it."""
    lrs, hrs = np.linspace(1.0, 2.0, 50), np.linspace(0.1, 0.5, 50)
    assert workloads.best_balanced_error(lrs, hrs) == 0.0
    assert workloads.best_balanced_error(np.r_[lrs, 0.2], hrs) > 0.0


# mismatch


def test_mismatch_wrong_analytic_limit(copy_of):
    w, out = copy_of("mismatch")

    def edit(rows):
        rows[0]["n_max_analytic"] = str(int(rows[0]["n_max_analytic"]) + 1)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"closed form")


def test_mismatch_paper_limits_at_2mv(copy_of):
    """A window current 2% off moves both analytic limits; with the CSV
    rewritten to that closed form, only the paper's 195 and 6500 trip."""
    w, out = copy_of("mismatch")
    (c,) = w.campaigns
    cfg = dataclasses.replace(
        c.cfg, mismatch=dataclasses.replace(c.cfg.mismatch, i_min=c.cfg.mismatch.i_min * 1.02))
    wrong = dataclasses.replace(w, campaigns=(dataclasses.replace(c, cfg=cfg),))
    i_bind = min(cfg.mismatch.i_max, cfg.mismatch.i_min)
    lin, non = cfg.device.linear_params(), cfg.device.nonlinear_params()

    def edit(rows):
        for r in rows:
            dv = float(r["delta_v_V"])
            bound = (2 * i_bind * lin.lrs_ohms / dv if r["model"] == "linear"
                     else 2 * i_bind / (dv * non.a * non.k_on))
            r["n_max_analytic"] = str(int(bound))
        return rows

    edit_csv(c.csv_path(out), edit)
    fails(wrong, out, r"at 2 mV: analytic limit (198|6630), want (195|6500)")


def test_mismatch_empirical_off_by_one(copy_of):
    w, out = copy_of("mismatch")

    def edit(rows):
        rows[1]["n_max_empirical"] = str(int(rows[1]["n_max_empirical"]) - 1)
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"crossing of the exact column current")


def test_mismatch_empirical_far_off(copy_of):
    w, out = copy_of("mismatch")

    def edit(rows):
        rows[0]["n_max_empirical"] = str(int(int(rows[0]["n_max_empirical"]) * 1.2))
        return rows

    edit_csv(w.campaigns[0].csv_path(out), edit)
    fails(w, out, r"from the analytic")


def test_mismatch_summary_flag(copy_of):
    w, out = copy_of("mismatch")
    edit_json(w.campaigns[0].json_path(out), lambda d: d.update(within_5pct=False))
    fails(w, out, r"more than 5%")
