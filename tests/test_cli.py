"""Command-line interface: config parsing, subcommands, exit codes."""

import dataclasses

import numpy as np
import pytest

import dgsl
from dgsl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PROPERTIES, EXIT_SOLVER,
                      build_run_config, main, parse_config_text)
from dgsl.convergence import CSV_HEADER
from dgsl.errors import ConfigError

BASIC_CONFIG = """\
# smallest sensible study
problem.name = sine
degree = 1
penalty = 100
mesh.kind = structured
mesh.levels = 4,8
output.format = csv
"""


def test_parse_config_text():
    entries = parse_config_text(BASIC_CONFIG)
    assert entries["problem.name"] == "sine"
    assert entries["mesh.levels"] == "4,8"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("solver.magic = on\n")


def test_parse_rejects_bad_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("this is not an assignment\n")


def test_build_run_config_defaults():
    cfg, penalties = build_run_config(parse_config_text(BASIC_CONFIG))
    assert cfg.degree == 1
    assert cfg.levels == (4, 8)
    assert penalties == [100.0]


def test_build_run_config_penalty_sweep():
    entries = parse_config_text(BASIC_CONFIG)
    entries["penalty"] = "10,100,1000"
    _, penalties = build_run_config(entries)
    assert penalties == [10.0, 100.0, 1000.0]


def test_run_writes_csv(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    out = tmp_path / "table.csv"
    conf.write_text(BASIC_CONFIG + f"output.path = {out}\n")
    assert main(["run", "--config", str(conf)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith(CSV_HEADER)
    assert len(text.strip().split("\n")) == 3


def test_run_set_overrides(tmp_path):
    conf = tmp_path / "study.conf"
    out = tmp_path / "table.csv"
    conf.write_text(BASIC_CONFIG + f"output.path = {out}\n")
    assert main(["run", "--config", str(conf), "--set", "degree=2",
                 "--set", "mesh.levels=4"]) == EXIT_OK
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2
    assert rows[1].split(",")[-1] == str(2 * 16 * 6)  # P2 block size


def test_run_markdown_to_stdout(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    conf.write_text(BASIC_CONFIG.replace("csv", "markdown")
                    + "mesh.levels = 4\n")
    assert main(["run", "--config", str(conf)]) == EXIT_OK
    assert "| h" in capsys.readouterr().out


def test_run_determinism(tmp_path):
    conf = tmp_path / "study.conf"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    conf.write_text(BASIC_CONFIG)
    main(["run", "--config", str(conf), "--set", f"output.path={out1}"])
    main(["run", "--config", str(conf), "--set", f"output.path={out2}"])
    assert out1.read_bytes() == out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("mesh.kind = dodecahedra\n")
    assert main(["run", "--config", str(conf)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) \
        == EXIT_CONFIG
    assert main(["run", "--set", "degree=9"]) == EXIT_CONFIG


def test_solver_failure_exit_code_and_partial_flush(tmp_path, capsys):
    conf = tmp_path / "study.conf"
    out = tmp_path / "partial.csv"
    conf.write_text(BASIC_CONFIG + f"output.path = {out}\n"
                    + "newton.max_iterations = 1\n")
    assert main(["run", "--config", str(conf)]) == EXIT_SOLVER
    # the partial report (header, no completed rows) is still flushed
    assert out.read_text().startswith(CSV_HEADER)


def test_run_small_penalty_exits_solver_error(tmp_path, capsys):
    # the direct solver's inertia certificate rejects the indefinite operator
    conf = tmp_path / "study.conf"
    out = tmp_path / "partial.csv"
    conf.write_text(BASIC_CONFIG + f"output.path = {out}\n")
    code = main(["run", "--config", str(conf), "--set", "penalty=0.01"])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "IndefiniteOperator" in err and "negative pivots" in err
    assert out.read_text().startswith(CSV_HEADER)


def test_run_non_finite_source_exits_solver_error(tmp_path, capsys,
                                                  monkeypatch):
    sine = dgsl.get_problem("sine")
    broken = dataclasses.replace(sine, name="nan-source",
                                 source=lambda x, y: np.nan * x)
    monkeypatch.setitem(dgsl.problems._REGISTRY, broken.name, broken)
    conf = tmp_path / "study.conf"
    out = tmp_path / "partial.csv"
    conf.write_text(BASIC_CONFIG.replace("sine", broken.name)
                    + f"output.path = {out}\n")
    assert main(["run", "--config", str(conf)]) == EXIT_SOLVER
    assert "NonFiniteValue" in capsys.readouterr().err
    assert out.read_text().startswith(CSV_HEADER)


def test_verify_quadrature_suite(capsys):
    assert main(["verify", "--suite", "quadrature"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == EXIT_CONFIG


def test_verify_small_penalty_breaks_coercivity(capsys):
    code = main(["verify", "--suite", "coercivity", "--set", "penalty=0.01"])
    assert code == EXIT_PROPERTIES
    assert "FAIL" in capsys.readouterr().out


def test_mesh_gen_structured(tmp_path):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", "gen", "--kind", "structured", "--n", "4",
                 "--out", str(out)]) == EXIT_OK
    mesh = dgsl.import_mesh(out.read_text())
    assert mesh.num_triangles == 32
    assert abs(mesh.total_area() - 1.0) <= 1e-12


def test_mesh_gen_perturbed_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["mesh", "gen", "--kind", "perturbed", "--n", "6",
            "--amplitude", "0.25", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_mesh_gen_validates_n(tmp_path):
    assert main(["mesh", "gen", "--kind", "structured", "--n", "0",
                 "--out", str(tmp_path / "x.txt")]) == EXIT_CONFIG


def test_run_penalty_sweep_writes_per_value_outputs(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    out = tmp_path / "sweep.csv"
    conf.write_text(
        "problem.name = sine\ndegree = 1\npenalty = 10,100\n"
        "mesh.kind = structured\nmesh.levels = 4\n"
        f"output.path = {out}\n")
    assert main(["run", "--config", str(conf)]) == EXIT_OK
    assert (tmp_path / "sweep_lam10.csv").exists()
    assert (tmp_path / "sweep_lam100.csv").exists()
    assert "penalty sweep" in capsys.readouterr().out


def test_generated_mesh_feeds_files_run(tmp_path):
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    main(["mesh", "gen", "--kind", "structured", "--n", "2", "--out", str(m1)])
    main(["mesh", "gen", "--kind", "structured", "--n", "4", "--out", str(m2)])
    conf = tmp_path / "files.conf"
    out = tmp_path / "out.csv"
    conf.write_text(
        "problem.name = sine\ndegree = 1\npenalty = 100\n"
        "mesh.kind = files\n"
        f"mesh.levels = {m1},{m2}\n"
        f"output.path = {out}\n")
    assert main(["run", "--config", str(conf)]) == EXIT_OK
    assert len(out.read_text().strip().split("\n")) == 3


def test_empty_config_takes_the_dataclass_defaults():
    cfg, penalties = build_run_config({})
    assert cfg == dgsl.RunConfig()
    assert penalties == [100.0]
