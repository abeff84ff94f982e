"""Command-line driver.

Subcommands:

    dgsl run --config PATH [--set key=value]...
    dgsl verify [--suite NAME] [--set penalty=VALUE]
    dgsl mesh gen --kind {structured,perturbed} --n N --out PATH
                  [--amplitude A] [--seed S]

Run configurations are plain-text ``key = value`` files with dotted
keys; ``--set`` flags override file entries. A comma-separated
``penalty`` list turns a run into a penalty sweep with one output per
value. A configuration is checked in full, every penalty of a sweep
included, before anything runs. Exit codes: 0 success, 2 configuration
error, 3 solver failure, 4 property-suite failure.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .assembly import AssemblyConfig
from .convergence import (RunConfig, report_from_raw, run_convergence,
                          sweep_summary)
from .errors import ConfigError, DgslError
from .mesh import build_perturbed, build_structured, export_mesh
from .newton import NewtonConfig
from .properties import SUITES, run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROPERTIES = 4


# config key -> (RunConfig field, parser); an absent key keeps the
# field's default. "penalty" and "mesh.levels" are parsed separately.
_RUN_KEYS = {
    "problem.name": ("problem", str),
    "degree": ("degree", int),
    "mesh.kind": ("mesh_kind", str),
    "mesh.amplitude": ("amplitude", float),
    "mesh.seed": ("seed", int),
    "quad.volume_degree": ("volume_degree", int),
    "quad.edge_degree": ("edge_degree", int),
    "output.path": ("output_path", str),
    "output.format": ("output_format", str),
}
# the same for the NewtonConfig fields
_NEWTON_KEYS = {
    "newton.abs_tol": ("abs_tol", float),
}
KNOWN_KEYS = {"penalty", "mesh.levels", *_RUN_KEYS, *_NEWTON_KEYS}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; `#` starts a comment."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


def _parse(key, parse, value):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad {key} {value!r}") from exc


def _tokens(value):
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


def _fields(entries, keys):
    return {name: _parse(key, parse, entries[key])
            for key, (name, parse) in keys.items() if key in entries}


def build_run_config(entries: dict):
    """RunConfig plus the penalty list (len > 1 means a sweep)."""
    penalties = [_parse("penalty", float, tok)
                 for tok in _tokens(entries.get("penalty", RunConfig.penalty))]
    if not penalties:
        raise ConfigError("penalty list is empty")

    fields = _fields(entries, _RUN_KEYS)
    if "mesh.levels" in entries:
        tokens = _tokens(entries["mesh.levels"])
        if fields.get("mesh_kind", RunConfig.mesh_kind) != "files":
            tokens = [_parse("mesh.levels", int, tok) for tok in tokens]
        fields["levels"] = tuple(tokens)
    newton = NewtonConfig(**_fields(entries, _NEWTON_KEYS))
    return RunConfig(penalty=penalties[0], newton=newton, **fields), penalties


def _split_set(item):
    """(key, value) of one ``--set key=value`` argument."""
    if "=" not in item:
        raise ConfigError(f"--set needs key=value, got {item!r}")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


def _apply_sets(entries, set_args):
    for item in set_args or ():
        key, value = _split_set(item)
        if key not in KNOWN_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        entries[key] = value
    return entries


def _write_output(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        print(f"wrote {path}")


def _output_path_for(base, lam, many):
    if base is None or base == "-" or not many:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_lam{lam:g}{p.suffix}"))


def cmd_run(args):
    entries = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        entries = parse_config_text(path.read_text())
    _apply_sets(entries, args.set)
    cfg, penalties = build_run_config(entries)
    # every penalty of a sweep is checked before the first level runs
    runs = [replace(cfg, penalty=lam) for lam in penalties]

    many = len(runs) > 1
    outputs = [_output_path_for(cfg.output_path, lam, many) for lam in penalties]
    for index, out in enumerate(outputs):
        if out not in (None, "-") and out in outputs[:index]:
            raise ConfigError(f"penalty {penalties[index]!r} would overwrite "
                              f"{out}, the table of an earlier penalty")
    finest = []
    for run_cfg, out in zip(runs, outputs):
        raw = []
        try:
            report = run_convergence(run_cfg,
                                     progress=lambda i, row: raw.append(row))
        except DgslError:
            # flush the levels that finished; main reports the error
            _write_output(report_from_raw(raw).serialize(cfg.output_format),
                          out)
            raise
        _write_output(report.serialize(cfg.output_format), out)
        finest.append(report.rows[-1])

    if many:
        summary = sweep_summary(finest)
        print("penalty sweep at finest level "
              f"(h = {finest[0].h:g}):")
        for lam, row in zip(penalties, finest):
            print(f"  penalty {lam:g}: l2 {row.l2_error:.4e}, "
                  f"dg {row.dg_error:.4e}")
        trend_dg = "decreases" if summary["dg_decreasing"] else "is not monotone"
        trend_l2 = "increases" if summary["l2_increasing"] else "is not monotone"
        print(f"  energy-norm error {trend_dg} with the penalty; "
              f"L2 error {trend_l2}.")
    return EXIT_OK


def cmd_verify(args):
    overrides = {}
    for item in args.set or ():
        key, value = _split_set(item)
        if key != "penalty":
            raise ConfigError(f"--set: verify reads only 'penalty', "
                              f"got {key!r}")
        penalty = _parse(key, float, value)
        overrides[key] = AssemblyConfig(penalty=penalty).penalty
    try:
        results = run_property_suite(args.suite, overrides)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTIES


def cmd_mesh_gen(args):
    if args.kind == "structured":
        mesh = build_structured(args.n)
    else:
        mesh = build_perturbed(args.n, args.amplitude, args.seed)
    Path(args.out).write_text(export_mesh(mesh))
    print(f"wrote {args.out} ({mesh.num_vertices} vertices, "
          f"{mesh.num_triangles} triangles)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dgsl",
        description="Interior penalty DG solver for semilinear elliptic "
                    "problems on triangular meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a convergence study")
    p_run.add_argument("--config", help="key = value configuration file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", default="all",
                          help=f"one of: all, {', '.join(sorted(SUITES))}")
    p_verify.add_argument("--set", action="append", metavar="KEY=VALUE",
                          help="override a suite parameter (e.g. penalty=0.01)")
    p_verify.set_defaults(func=cmd_verify)

    p_mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate a mesh file")
    p_gen.add_argument("--kind", choices=("structured", "perturbed"),
                       default="structured")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--amplitude", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(func=cmd_mesh_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DgslError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
