"""Batch front end: JSON experiment configs in, CSV/JSON reports out.

``karcher run config.json [--out DIR] [--format csv|json] [--seed N]
[--ladder h0,k]`` executes one experiment; ``karcher verify <suite>`` runs
the verification suites.  Exit codes: 0 all assertions pass, 1 assertion
failures (with a machine-readable failure list on stdout), 2 invalid
or out-of-range configuration, 3 numerical failure.  The experiments
themselves are defined in :mod:`karcher.acceptance`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from .errors import ConfigError, KarcherError
from .manifolds import EuclideanSpace, HyperbolicSpace, Manifold, Sphere

KINDS = ("distortion-sweep", "jacobi-checks", "fem-poisson", "flat-simplex-props")


def _require_object(field: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(field, "must be a JSON object")
    return value


def _require_int(field: str, value) -> int:
    """``value`` if it is a JSON integer; floats, strings and booleans are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    return value


def _require_positive(field: str, value) -> float:
    """``value`` as a float if it is a positive, finite JSON number;
    strings and booleans are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(field, f"must be positive and finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    dim: int = 2
    radius: float = 1.0
    curvature: float = 1.0

    @staticmethod
    def from_dict(d: dict) -> "ManifoldSpec":
        kind = _require_object("manifold", d).get("kind")
        if kind not in ("euclidean", "sphere", "hyperbolic"):
            raise ConfigError("manifold.kind", f"unknown manifold kind {kind!r}")
        spec = ManifoldSpec(
            kind=kind, dim=_require_int("manifold.dim", d.get("dim", 2)),
            radius=_require_positive("manifold.radius", d.get("radius", 1.0)),
            curvature=_require_positive("manifold.curvature",
                                        d.get("curvature", 1.0)))
        if spec.dim < 1:
            raise ConfigError("manifold.dim", "dimension must be at least 1")
        return spec

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "radius": self.radius, "curvature": self.curvature}

    def build(self) -> Manifold:
        if self.kind == "euclidean":
            return EuclideanSpace(self.dim)
        if self.kind == "sphere":
            return Sphere(self.dim, radius=self.radius)
        return HyperbolicSpace(self.dim, curvature=self.curvature)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    manifold: ManifoldSpec
    ladder_h0: float = 0.2
    ladder_levels: int = 5
    fem_levels: tuple[int, ...] = (1, 2, 3, 4)
    fem_mode: str = "flat"
    trials: int = 50
    seed: int = 0
    out: str = "."
    format: str = "csv"

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        kind = d.get("kind")
        if kind not in KINDS:
            raise ConfigError("kind", f"unknown experiment kind {kind!r}")
        if "manifold" not in d:
            raise ConfigError("manifold", "missing manifold spec")
        spec = ManifoldSpec.from_dict(d["manifold"])
        if kind == "fem-poisson" and spec.kind != "sphere":
            raise ConfigError("manifold.kind",
                              "fem-poisson runs on the sphere only")
        if kind == "fem-poisson" and spec.dim != 2:
            raise ConfigError("manifold.dim", "fem-poisson runs on the 2-sphere")
        if kind == "distortion-sweep" and spec.dim < 2:
            raise ConfigError("manifold.dim",
                              "the simplex family needs dimension >= 2")
        ladder = _require_object("ladder", d.get("ladder", {}))
        fem_levels = d.get("fem_levels", [1, 2, 3, 4])
        if not isinstance(fem_levels, list):
            raise ConfigError("fem_levels", f"must be a list, got {fem_levels!r}")
        cfg = ExperimentConfig(
            kind=kind, manifold=spec,
            ladder_h0=_require_positive("ladder.h0", ladder.get("h0", 0.2)),
            ladder_levels=_require_int("ladder.levels", ladder.get("levels", 5)),
            fem_levels=tuple(_require_int("fem_levels", x) for x in fem_levels),
            fem_mode=d.get("fem_mode", "flat"),
            trials=_require_int("trials", d.get("trials", 50)),
            seed=_require_int("seed", d.get("seed", 0)),
            out=str(d.get("out", ".")),
            format=d.get("format", "csv"))
        if cfg.format not in ("csv", "json"):
            raise ConfigError("format", f"unknown output format {cfg.format!r}")
        if kind == "distortion-sweep" and cfg.ladder_levels < 4:
            raise ConfigError("ladder.levels",
                              "slope experiments need at least 4 levels")
        if kind == "fem-poisson" and len(cfg.fem_levels) < 4:
            raise ConfigError("fem_levels",
                              "slope experiments need at least 4 levels")
        if any(level < 0 for level in cfg.fem_levels):
            raise ConfigError("fem_levels",
                              "refinement levels must be nonnegative")
        if cfg.fem_mode not in ("flat", "pulled-back"):
            raise ConfigError("fem_mode",
                              f"unknown assembly mode {cfg.fem_mode!r}")
        if cfg.trials < 1:
            raise ConfigError("trials", "need at least one trial")
        if cfg.seed < 0:
            raise ConfigError("seed", "seeds are nonnegative integers")
        return cfg

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "manifold": self.manifold.to_dict(),
            "ladder": {"h0": self.ladder_h0, "levels": self.ladder_levels},
            "fem_levels": list(self.fem_levels), "fem_mode": self.fem_mode,
            "trials": self.trials, "seed": self.seed,
            "out": self.out, "format": self.format,
        }


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Read a JSON config; ``overrides`` replace its top-level entries."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("path", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("json", f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("json", "config must be a JSON object")
    return ExperimentConfig.from_dict({**data, **overrides})


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list], config: dict,
               footer: list[list]):
    lines = [f"# version: {__version__}",
             f"# config: {json.dumps(config, sort_keys=True)}",
             ",".join(header)]
    for row in rows + footer:
        lines.append(",".join(_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(c) -> str:
    if isinstance(c, float):
        return repr(c)
    return str(c)


def _experiment(cfg: ExperimentConfig) -> acceptance.Experiment:
    if cfg.kind == "flat-simplex-props":
        return acceptance.flat_simplex_experiment(cfg.seed, cfg.trials)
    man = cfg.manifold.build()
    if cfg.kind == "distortion-sweep":
        return acceptance.distortion_experiment(man, cfg.ladder_h0,
                                                cfg.ladder_levels)
    if cfg.kind == "fem-poisson":
        return acceptance.fem_experiment(man, cfg.fem_levels, cfg.fem_mode)
    return acceptance.jacobi_experiment(man, cfg.seed, cfg.trials)


def run(cfg: ExperimentConfig) -> int:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    exp = _experiment(cfg)
    if cfg.format == "json":
        _write_json(out_dir / f"{cfg.kind}.json",
                    {"version": __version__, "config": cfg.to_dict(),
                     **exp.fields, "failures": exp.failures})
    else:
        _write_csv(out_dir / f"{cfg.kind}.csv", exp.header, exp.rows,
                   cfg.to_dict(), exp.footer)
    if exp.failures:
        print(json.dumps({"failures": exp.failures}, indent=2, sort_keys=True))
        return 1
    return 0


def verify(suite: str) -> int:
    if suite not in acceptance.SUITES:
        raise ConfigError("suite", f"unknown suite {suite!r}; "
                          f"choose from {sorted(acceptance.SUITES)}")
    results = acceptance.run_suite(suite)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.criterion}: {res.detail}")
    failed = [r.to_dict() for r in results if not r.passed]
    if failed:
        print(json.dumps({"failures": failed}, indent=2, sort_keys=True))
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karcher",
        description="Experiments with center-of-mass simplices on manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output directory override")
    p_run.add_argument("--format", choices=("csv", "json"),
                       help="output format override")
    p_run.add_argument("--seed", type=int, help="seed override")
    p_run.add_argument("--ladder", help="ladder override as h0,levels")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="suite name "
                          f"({', '.join(sorted(acceptance.SUITES))})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return verify(args.suite)
        overrides = {key: value for key, value in (
            ("out", args.out), ("format", args.format), ("seed", args.seed))
            if value is not None}
        if args.ladder is not None:
            try:
                h0, levels = args.ladder.split(",")
                overrides["ladder"] = {"h0": float(h0), "levels": int(levels)}
            except ValueError as exc:
                raise ConfigError("ladder", "expected --ladder h0,levels") from exc
        return run(load_config(args.config, **overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KarcherError, ValueError, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
