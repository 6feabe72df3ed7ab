"""Scenario files: loading, validation, and object factories.

A scenario is a JSON object with a fixed schema (see
docs/scenario-schema.md): a name, a mandatory integer seed (no implicit
entropy anywhere), a configuration-space block, optional evolution and
tolerance blocks, optional named generator specs, and an ordered list of
checks to run.  Bundled scenarios live in the package's ``scenarios/``
directory and can be addressed by bare name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .hierarchy import Generator
from .mixedpow import IndexPair
from .operators import (
    cross_ratio_op,
    lambda_op,
    log_modulus_op,
    nonseparating_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shifted_log_modulus_op,
    spin_rms_log_op,
    spin_rotation_op,
    site_matrix_op,
)
from .space import ConfigSpace


def _complex_of(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def finite_number(value, where: str, positive: bool = False) -> float:
    """A JSON number as a finite float (booleans rejected), optionally > 0."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if ok else math.nan
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (positive and number <= 0):
        kind = "a finite positive number" if positive else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {value!r}")
    return number


def build_space(spec: dict, where: str = "space") -> ConfigSpace:
    if not isinstance(spec, dict) or "size" not in spec:
        raise ScenarioError(f"{where}: expected an object with a 'size' field")
    factors = spec.get("factors")
    try:
        return ConfigSpace(
            size=int(spec["size"]),
            factors=tuple(int(f) for f in factors) if factors else None,
            grid=bool(spec.get("grid", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def random_hermitian(space: ConfigSpace, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((space.size, space.size)) + 1j * rng.standard_normal(
        (space.size, space.size)
    )
    return (a + a.conj().T) / 2.0


def build_generator(space: ConfigSpace, spec: dict, rng: np.random.Generator,
                    where: str = "generator") -> Generator:
    """Instantiate a generator from its scenario description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{where}: expected an object with a 'kind' field")
    kind = spec["kind"]
    coeff = _complex_of(spec.get("coeff", 1.0), where)
    coupling = _complex_of(spec.get("coupling", 1.0), where)
    if kind == "lambda":
        idx = IndexPair(
            _complex_of(spec.get("a", 0.0), where), _complex_of(spec.get("b", 0.0), where)
        )
        return Generator(op=lambda_op(idx, 1, space), ell=1, indices=idx)
    if kind == "log-modulus":
        return Generator(
            op=log_modulus_op(space, coeff), ell=1, indices=IndexPair(coeff, 0.0)
        )
    if kind == "shifted-log-modulus":
        op = shifted_log_modulus_op(space, coeff, int(spec.get("shift", 1)))
        return Generator(op=op, ell=1, indices=IndexPair(coeff, 0.0))
    if kind == "relative-log-modulus":
        return Generator(
            op=relative_log_modulus_op(space, coeff), ell=1, indices=IndexPair(0, 0)
        )
    if kind == "rms-log-modulus":
        return Generator(
            op=rms_log_modulus_op(space, coeff), ell=1, indices=IndexPair(0, 0)
        )
    if kind == "spin-rms-log":
        return Generator(
            op=spin_rms_log_op(space, coeff), ell=1, indices=IndexPair(0, 0)
        )
    if kind == "spin-rotation":
        return Generator(op=spin_rotation_op(space), ell=1, indices=IndexPair(0, 0))
    if kind == "linear":
        matrix = spec.get("matrix", "hermitian-random")
        if matrix == "hermitian-random":
            mat = random_hermitian(space, rng)
        else:
            mat = np.array(
                [[_complex_of(v, where) for v in row] for row in matrix],
                dtype=np.complex128,
            )
        return Generator(
            op=site_matrix_op(space, mat), ell=1, indices=IndexPair(0, 0)
        )
    if kind == "cross-ratio":
        refs = spec.get("refs", [0, 0])
        op = cross_ratio_op(space, (int(refs[0]), int(refs[1])), coupling)
        return Generator(op=op, ell=2, indices=IndexPair(0, 0))
    if kind == "non-separating":
        return Generator(
            op=nonseparating_op(space, 2, coupling), ell=2, indices=IndexPair(0, 0)
        )
    raise ScenarioError(f"{where}: unknown generator kind {kind!r}")


def build_point_spec(doc: dict, where: str = "symmetry"):
    """Point-symmetry data from its scenario block.

    eta and xi are named profiles ("constant", "linear", "sine") with
    amplitude/phase parameters; gamma, delta are constants; tau is an
    affine map {"alpha": ..., "beta": ...}.
    """
    from .symmetry import AffineMap, PointSymmetrySpec, named_profile

    def block_of(value, name):
        if not isinstance(value, dict):
            raise ScenarioError(f"{name}: expected an object, got {value!r}")
        return value

    def number(block, key, default, name):
        return finite_number(block.get(key, default), f"{name}.{key}")

    def field_profile(block, name):
        if block is None:
            return None
        if not isinstance(block, dict) or "profile" not in block:
            raise ScenarioError(f"{name}: expected a profile object")
        shape = {key: number(block, key, default, name)
                 for key, default in (("amplitude", 1.0), ("phase", 0.0), ("offset", 0.0))}
        try:
            profile = named_profile(block["profile"], **shape)
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
        return lambda t, pos: profile(pos)

    doc = block_of(doc, where)
    tau_doc = block_of(doc.get("tau", {}), f"{where}.tau")
    return PointSymmetrySpec(
        eta=field_profile(doc.get("eta"), f"{where}.eta"),
        xi=field_profile(doc.get("xi"), f"{where}.xi"),
        gamma=number(doc, "gamma", 0.0, where),
        delta=number(doc, "delta", 0.0, where),
        tau=AffineMap(number(tau_doc, "alpha", 0.0, f"{where}.tau"),
                      number(tau_doc, "beta", 0.0, f"{where}.tau")),
    )


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    space: ConfigSpace
    checks: tuple[dict, ...]
    hbar: float = 1.0
    evolution: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    generators: dict = field(default_factory=dict)
    symmetry: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _normalise_checks(entries, known: set[str]) -> tuple[dict, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ScenarioError(f"checks: expected a list, got {entries!r}")
    checks = []
    for k, entry in enumerate(entries):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or "name" not in entry:
            raise ScenarioError(f"checks[{k}]: expected a name or {{'name': ...}} object")
        if entry["name"] not in known:
            raise ScenarioError(f"checks[{k}]: unknown check {entry['name']!r}")
        entry.setdefault("params", {})
        checks.append(entry)
    return tuple(checks)


def parse_scenario(doc: dict, known_checks: set[str], origin: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{origin}: top level must be a JSON object")
    for key in ("name", "seed", "space", "checks"):
        if key not in doc:
            raise ScenarioError(f"{origin}: missing required field {key!r}")
    if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool):
        raise ScenarioError(f"{origin}: seed must be an integer (no implicit entropy)")
    space = build_space(doc["space"])
    checks = _normalise_checks(doc["checks"], known_checks)
    if not checks:
        raise ScenarioError(f"{origin}: empty check list")
    tolerances = doc.get("tolerances", {})
    if not all(isinstance(v, (int, float)) for v in tolerances.values()):
        raise ScenarioError(f"{origin}: tolerances must map check names to numbers")
    hbar = finite_number(doc.get("hbar", 1.0), f"{origin}: hbar", positive=True)
    evolution = doc.get("evolution", {})
    if not isinstance(evolution, dict):
        raise ScenarioError(f"{origin}: evolution must be an object, got {evolution!r}")
    evolution = {
        key: finite_number(value, f"{origin}: evolution.{key}", positive=key == "dt")
        if key in ("dt", "t0", "t1") else value
        for key, value in evolution.items()
    }
    symmetry = doc.get("symmetry", {})
    if symmetry:
        build_point_spec(symmetry)
    return Scenario(
        name=str(doc["name"]),
        seed=doc["seed"],
        space=space,
        checks=checks,
        hbar=hbar,
        evolution=evolution,
        tolerances=dict(tolerances),
        generators=doc.get("generators", {}),
        symmetry=symmetry,
        raw=doc,
    )


def bundled_scenario_names() -> list[str]:
    root = resources.files("sepsym").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_name: str, known_checks: set[str]) -> Scenario:
    """Load a scenario from a file path or a bundled name."""
    p = Path(path_or_name)
    if p.suffix == ".json" or p.exists():
        try:
            text = p.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path_or_name!r}: {exc}") from exc
        origin = str(p)
    else:
        res = resources.files("sepsym").joinpath(f"scenarios/{path_or_name}.json")
        if not res.is_file():
            raise ScenarioError(
                f"no scenario file or bundled scenario named {path_or_name!r}; "
                f"bundled: {', '.join(bundled_scenario_names())}"
            )
        text = res.read_text()
        origin = f"bundled:{path_or_name}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(doc, known_checks, origin=origin)
