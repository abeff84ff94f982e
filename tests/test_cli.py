"""Command-line interface: config parsing, subcommands, exit codes."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgsl
from dgsl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PROPERTIES, EXIT_SOLVER,
                      KNOWN_KEYS, build_run_config, main, parse_config_text)
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


def test_solver_failure_exit_code_and_partial_flush(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(dgsl.newton, "MAX_ITERATIONS", 1)
    conf = tmp_path / "study.conf"
    out = tmp_path / "partial.csv"
    conf.write_text(BASIC_CONFIG + f"output.path = {out}\n")
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
        "mesh.kind = structured\nmesh.levels = 4,8\n"
        f"output.path = {out}\n")
    assert main(["run", "--config", str(conf)]) == EXIT_OK
    assert (tmp_path / "sweep_lam10.csv").exists()
    stdout = capsys.readouterr().out
    assert "penalty sweep" in stdout
    assert "energy-norm error" in stdout and "L2 error" in stdout
    # one penalty of a sweep writes what a run at that penalty alone writes
    single = tmp_path / "single.csv"
    assert main(["run", "--config", str(conf), "--set", "penalty=100",
                 "--set", f"output.path={single}"]) == EXIT_OK
    assert (tmp_path / "sweep_lam100.csv").read_bytes() == single.read_bytes()


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


def test_files_penalty_sweep_parses_each_mesh_once(tmp_path, monkeypatch):
    paths = [tmp_path / f"m{n}.txt" for n in (2, 4)]
    for n, path in zip((2, 4), paths):
        main(["mesh", "gen", "--n", str(n), "--out", str(path)])
    parsed = []
    import_mesh = dgsl.convergence.import_mesh
    monkeypatch.setattr(dgsl.convergence, "import_mesh",
                        lambda text: parsed.append(text) or import_mesh(text))
    assert main(["run", "--set", "mesh.kind=files",
                 "--set", f"mesh.levels={paths[0]},{paths[1]}",
                 "--set", "penalty=10,100",
                 "--set", f"output.path={tmp_path / 'out.csv'}"]) == EXIT_OK
    assert (tmp_path / "out_lam10.csv").exists()
    assert (tmp_path / "out_lam100.csv").exists()
    assert len(parsed) == 2


def test_bad_second_mesh_file_exits_before_any_level(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    main(["mesh", "gen", "--kind", "structured", "--n", "2", "--out",
          str(good)])
    bad.write_text("3 1\n0 0\n1 0\n1 1\n0 1 7\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--set", "mesh.kind=files",
                 "--set", f"mesh.levels={good},{bad}",
                 "--set", f"output.path={out}"]) == EXIT_CONFIG
    assert "bad.txt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["structured", "perturbed", "files"])
def test_levels_that_do_not_refine_exit_before_any_level(kind, tmp_path,
                                                         capsys):
    levels = "8,4"
    if kind == "files":
        paths = [tmp_path / f"m{n}.txt" for n in (8, 4)]
        for n, path in zip((8, 4), paths):
            main(["mesh", "gen", "--n", str(n), "--out", str(path)])
        levels = ",".join(map(str, paths))
    out = tmp_path / "out.csv"
    assert main(["run", "--set", f"mesh.kind={kind}",
                 "--set", f"mesh.levels={levels}",
                 "--set", f"output.path={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "refine" in err
    assert not out.exists() and "Traceback" not in err


def test_perturbed_ladder_whose_h_does_not_fall_flushes_its_levels(
        tmp_path, capsys):
    # the measured h_max of these three levels reads 0.429, 0.356, 0.369
    out = tmp_path / "out.csv"
    assert main(["run", "--set", "mesh.kind=perturbed",
                 "--set", "mesh.amplitude=0.3", "--set", "mesh.seed=33",
                 "--set", "mesh.levels=4,5,6",
                 "--set", f"output.path={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "strictly decreasing" in err and "Traceback" not in err
    rows = out.read_text().strip().split("\n")
    assert rows[0] == CSV_HEADER and len(rows) == 3
    assert rows[2].split(",")[2] != ""           # the first order is there


@pytest.mark.parametrize("penalties", ["100,100.0000001", "10,100,10"])
def test_sweep_outputs_that_collide_exit_before_running(penalties, tmp_path,
                                                        capsys):
    out = tmp_path / "sw.csv"
    assert main(["run", "--set", f"penalty={penalties}",
                 "--set", "mesh.levels=4",
                 "--set", f"output.path={out}"]) == EXIT_CONFIG
    assert "would overwrite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_empty_config_takes_the_dataclass_defaults():
    cfg, penalties = build_run_config({})
    assert cfg == dgsl.RunConfig()
    assert penalties == [100.0]


# each input must exit 2 before anything runs or is written
BAD_INPUTS = {
    "sweep_with_negative_penalty": ["run", "--set", "penalty=100,-5"],
    "nan_penalty": ["run", "--set", "penalty=nan"],
    "unknown_problem": ["run", "--set", "problem.name=nope"],
    "perturbed_amplitude": ["run", "--set", "mesh.kind=perturbed",
                            "--set", "mesh.amplitude=0.5"],
    "mesh_gen_amplitude": ["mesh", "gen", "--kind", "perturbed", "--n", "4",
                           "--amplitude", "0.5"],
    "verify_negative_penalty": ["verify", "--set", "penalty=-1"],
    "verify_text_penalty": ["verify", "--set", "penalty=abc"],
    "verify_nan_penalty": ["verify", "--set", "penalty=nan"],
    "verify_unknown_key": ["verify", "--set", "foo=1"],
    "removed_newton_key": ["run", "--set", "newton.damping=off"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_config_error_before_running(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] == "run":
        argv = argv + ["--set", "mesh.levels=4", "--set", f"output.path={out}"]
    elif argv[0] == "mesh":
        argv = argv + ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert "Traceback" not in captured.err
    assert "PASS" not in captured.out           # no suite ran
    assert list(tmp_path.iterdir()) == []       # no table, no _lam100 table


BAD_VALUES = ["nan", "inf", "-1", "0", "0.5", "1e400", "abc", ""]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)),
                       st.sampled_from(BAD_VALUES), min_size=1, max_size=3))
def test_run_configuration_is_valid_once_built(entries):
    # build every run of the sweep, as `dgsl run` does; no solve runs
    try:
        cfg, penalties = build_run_config(entries)
        runs = [dataclasses.replace(cfg, penalty=lam) for lam in penalties]
    except ConfigError:
        return
    # a configuration that builds can set up every run it describes
    for run_cfg in runs:
        run_cfg.assembly_config()
        assert dgsl.get_problem(run_cfg.problem).exact is not None
