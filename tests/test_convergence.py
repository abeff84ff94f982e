"""Convergence-study driver: reports, sweeps, determinism, mesh files."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import dgsl
import dgsl.convergence
from dgsl import RunConfig, run_convergence
from dgsl.cli import build_run_config, parse_config_text
from dgsl.convergence import CSV_HEADER
from dgsl.errors import ConfigError


def tiny_config(**kw):
    base = dict(problem="sine", degree=1, penalty=100.0,
                mesh_kind="structured", levels=(4, 8))
    base.update(kw)
    return RunConfig(**base)


def test_single_level_has_no_orders():
    report = run_convergence(tiny_config(levels=(4,)))
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.l2_order is None and row.dg_order is None
    assert row.h == 0.25
    assert row.dofs == 2 * 16 * 3


def test_progress_receives_the_report_rows_in_order():
    seen = []
    report = run_convergence(tiny_config(levels=(2, 4, 8)),
                             progress=lambda index, row: seen.append((index, row)))
    assert [index for index, _ in seen] == [0, 1, 2]
    assert all(row is kept for (_, row), kept in zip(seen, report.rows))
    assert len(seen) == len(report.rows)


def test_csv_layout():
    report = run_convergence(tiny_config())
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""     # no orders on the first row
    assert first[0] == "0.25"
    second = lines[2].split(",")
    assert float(second[2]) > 1.5                # second-order in L2


def test_markdown_layout():
    text = run_convergence(tiny_config()).to_markdown()
    lines = text.strip().split("\n")
    assert lines[0].startswith("| h")
    assert "--" in lines[2]                       # first-row order placeholder
    assert len(lines) == 4


def test_runs_are_deterministic():
    a = run_convergence(tiny_config()).to_csv()
    b = run_convergence(tiny_config()).to_csv()
    assert a.encode() == b.encode()


def test_perturbed_family_reports_hmax():
    cfg = tiny_config(mesh_kind="perturbed", amplitude=0.2, seed=42,
                      levels=(4, 8))
    report = run_convergence(cfg)
    # perturbed meshes report the true maximum diameter, not 1/n
    assert report.rows[0].h > np.sqrt(2) / 4 * 0.9
    assert report.rows[0].h != 0.25


def test_mesh_files_family(tmp_path):
    paths = []
    for n in (2, 4):
        p = tmp_path / f"m{n}.txt"
        p.write_text(dgsl.export_mesh(dgsl.build_structured(n)))
        paths.append(str(p))
    report = run_convergence(tiny_config(mesh_kind="files",
                                         levels=tuple(paths)))
    assert len(report.rows) == 2
    assert report.rows[0].h == pytest.approx(np.sqrt(2) / 2)


def test_files_run_parses_each_mesh_once(tmp_path, monkeypatch):
    paths = []
    for n in (2, 4):
        p = tmp_path / f"m{n}.txt"
        p.write_text(dgsl.export_mesh(dgsl.build_structured(n)))
        paths.append(str(p))
    parsed = []
    import_mesh = dgsl.convergence.import_mesh

    def counting_import(text):
        parsed.append(text)
        return import_mesh(text)

    monkeypatch.setattr(dgsl.convergence, "import_mesh", counting_import)
    cfg = tiny_config(mesh_kind="files", levels=tuple(paths))
    report = run_convergence(cfg)
    assert len(report.rows) == 2 and len(parsed) == 2
    # a derived config, as each run of a sweep is, reuses the meshes
    run_convergence(dataclasses.replace(cfg, penalty=10.0))
    assert len(parsed) == 2
    # and one with other levels parses only the paths it has not seen
    finer = dataclasses.replace(cfg, levels=(paths[1],))
    assert finer.build_level_mesh(0) is cfg.build_level_mesh(1)
    assert len(parsed) == 2


def test_bad_mesh_file_rejected_when_config_is_built(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(dgsl.export_mesh(dgsl.build_structured(2)))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n1 0\n")
    with pytest.raises(ConfigError, match="bad.txt"):
        tiny_config(mesh_kind="files", levels=(str(good), str(bad)))


def newton_counts(cfg):
    problem = dgsl.get_problem(cfg.problem)
    return [dgsl.solve_semilinear(dgsl.DGSpace(cfg.build_level_mesh(i),
                                               cfg.degree),
                                  problem, cfg.assembly_config(),
                                  cfg.newton)[1].iterations
            for i in range(len(cfg.levels))]


# Newton counts with every step solved exactly; forcing terms and the
# two-level preconditioner must leave them as they are
def test_table_r1_newton_counts():
    text = (Path(__file__).parent.parent / "demos" / "configs"
            / "table_r1.conf").read_text()
    cfg, _ = build_run_config(parse_config_text(text))
    assert newton_counts(cfg) == [4, 3, 3, 3]


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_p3_perturbed_newton_counts(seed):
    cfg = RunConfig(degree=3, volume_degree=14, edge_degree=12,
                    newton=dgsl.NewtonConfig(abs_tol=1e-11),
                    mesh_kind="perturbed", amplitude=0.2, seed=seed,
                    levels=(16, 32, 64))
    assert newton_counts(cfg) == [4, 4, 4]


def test_exact_initial_guess_rejected():
    # an interpolant start is a callable (test_newton and the uniqueness
    # suite start from the exact solution's values)
    with pytest.raises(ConfigError, match="initial_guess"):
        dgsl.NewtonConfig(initial_guess="exact")


@pytest.mark.parametrize("bad", [
    dict(levels=()),
    dict(mesh_kind="hexagons"),
    dict(output_format="xml"),
    dict(degree=5),
    dict(penalty=-1.0),
    dict(mesh_kind="files", levels=("/nonexistent/mesh.txt",)),
    dict(levels=(0,)),
    dict(penalty=float("nan")),
    dict(problem="nope"),
    dict(mesh_kind="perturbed", amplitude=0.5),
    dict(output_path="/nonexistent/dir/table.csv"),
    dict(output_path=""),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        tiny_config(**bad)


def test_missing_exact_solution_rejected(monkeypatch):
    monkeypatch.setitem(dgsl.problems._REGISTRY, "no-exact", dgsl.Problem(
        name="no-exact",
        nonlinearity=lambda u: 0.0 * u,
        d_nonlinearity=lambda u: 0.0 * u,
        source=lambda x, y: np.ones_like(x)))
    with pytest.raises(ConfigError, match="exact"):
        run_convergence(tiny_config(problem="no-exact", levels=(2,)))
