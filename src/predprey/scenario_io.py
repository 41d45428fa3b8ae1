"""Scenario file parsing and run-artifact export.

Scenario files are INI-style with fixed sections; the first line should be
the version header ``# predprey scenario v1``.  Unknown sections or keys are
rejected.  See README for the full key reference.

Artifacts written by a run:

* ``norms.csv``      one row per output time: t, L1/sup/TV of both components
* ``snapshots/``     one CSV per saved time: cell coordinates + u + w
* ``bounds.json``    the BoundsReport (schema_version inside)
* ``picard.log``     per window: successive iterate differences, and the rule
                     that stopped the window (``stop=tol`` or ``stop=estimate``)

All numeric output is printed with %.17g from fixed-order reductions, so a
repeated run produces byte-identical files.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .coupling import BoundsReport, CoupledTrace, Scenario, ScenarioRuleError
from .grid import DomainSpec, GridError

SCENARIO_HEADER = "# predprey scenario v1"
NORMS_HEADER = "# predprey norms v1"
SNAPSHOT_HEADER = "# predprey snapshot v1"


# the most cells an axis can have: numpy indexes arrays with np.intp
_MAX_CELLS = int(np.iinfo(np.intp).max)


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    def __init__(self, message: str, source: str = "<string>", line: int | None = None):
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


class ValidationError(ScenarioError):
    def __init__(self, key: str, message: str):
        super().__init__(f"[{key}] {message}")
        self.key = key


_SECTIONS: dict[str, tuple[set[str], set[str]]] = {
    # section: (required keys, optional keys)
    "domain": ({"dim", "bounds", "n_cells"}, set()),
    "model": ({"mu", "ell", "kappa", "attract", "K_alpha", "K_beta"}, set()),
    "coefficients": ({"alpha", "beta", "a", "b"}, set()),
    "initial": ({"u0", "w0"}, set()),
    "time": ({"T", "dt", "snapshot_every"}, set()),
    "schemes": ({"parabolic"}, {"hyperbolic", "picard_tol", "picard_max_iter"}),
    "output": ({"directory"}, {"formats", "seed"}),
}

_SLOTS = {
    "alpha": ex.Slot.ALPHA,
    "beta": ex.Slot.BETA,
    "a": ex.Slot.SOURCE_A,
    "b": ex.Slot.SOURCE_B,
    "u0": ex.Slot.INIT,
    "w0": ex.Slot.INIT,
}


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(key, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(key, f"not a finite number: {raw!r}")
    return value


def parse_int(key: str, raw: str) -> int:
    """An integer, or a ValidationError naming ``key``."""
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(key, f"not an integer: {raw!r}") from None


def check_cell_counts(key: str, n_cells: tuple[int, ...]) -> None:
    """Cells per axis: each an integer from 4 to _MAX_CELLS."""
    if not all(4 <= n <= _MAX_CELLS for n in n_cells):
        raise ValidationError(key, f"need 4 to {_MAX_CELLS} cells per axis, got {n_cells}")


def parse_resolutions(arg: str) -> list[int]:
    """A ``--resolutions`` refinement ladder: comma-separated cell counts, each
    valid for ``domain.n_cells``, at least two of them distinct."""
    ladder = [parse_int("--resolutions", part) for part in arg.split(",") if part.strip()]
    check_cell_counts("--resolutions", tuple(ladder))
    if len(set(ladder)) < 2:
        raise ValidationError("--resolutions", f"need two distinct cell counts to fit an "
                                               f"order, got {arg!r}")
    return ladder


def check_seed(seed: int) -> int:
    """The sampling seed (``output.seed``): a nonnegative integer."""
    if seed < 0:
        raise ValidationError("output.seed", f"must be nonnegative, got {seed}")
    return seed


def check_delta(delta: float) -> float:
    """A perturbation size (``--delta``): a finite number."""
    if not math.isfinite(delta):
        raise ValidationError("--delta", f"not a finite number: {delta}")
    return delta


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ParseError(str(exc), source, line) from None
    present = set(parser.sections())
    for section, (required, optional) in _SECTIONS.items():
        if section not in present:
            raise ValidationError(section, "missing section")
        keys = set(parser[section])
        missing = required - keys
        if missing:
            raise ValidationError(section, f"missing keys: {sorted(missing)}")
        unknown = keys - required - optional
        if unknown:
            raise ValidationError(section, f"unknown keys: {sorted(unknown)}")
    unknown_sections = present - set(_SECTIONS)
    if unknown_sections:
        raise ValidationError(sorted(unknown_sections)[0], "unknown section")

    dom = parser["domain"]
    dim = parse_int("domain.dim", dom["dim"])
    if dim not in (1, 2):
        raise ValidationError("domain.dim", f"dim must be 1 or 2, got {dim}")
    axis_specs = [chunk for chunk in dom["bounds"].split(";") if chunk.strip()]
    if len(axis_specs) != dim:
        raise ValidationError("domain.bounds", f"expected {dim} axis range(s)")
    bounds = []
    for chunk in axis_specs:
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValidationError("domain.bounds", f"bad axis range {chunk!r}")
        bounds.append((
            _parse_float("domain.bounds", parts[0]),
            _parse_float("domain.bounds", parts[1]),
        ))
    counts = [c for c in dom["n_cells"].split(",") if c.strip()]
    if len(counts) not in (1, dim):
        raise ValidationError("domain.n_cells", f"expected 1 or {dim} counts")
    n_cells = tuple(parse_int("domain.n_cells", c) for c in counts)
    if len(n_cells) == 1 and dim == 2:
        n_cells = (n_cells[0], n_cells[0])
    try:
        domain = DomainSpec(tuple(bounds))
    except GridError as exc:
        raise ValidationError("domain.bounds", str(exc)) from None
    # the spacings build_grid would use, without building the grid
    check_cell_counts("domain.n_cells", n_cells)
    dx = [(hi - lo) / n for (lo, hi), n in zip(domain.bounds, n_cells)]

    model = parser["model"]
    mu = _parse_float("model.mu", model["mu"])
    if mu <= 0:
        raise ValidationError("model.mu", f"diffusivity must be positive, got {mu!r}")
    kappa = _parse_float("model.kappa", model["kappa"])
    if kappa < 0:
        raise ValidationError("model.kappa", f"speed cap must be nonnegative, got {kappa!r}")
    ell = _parse_float("model.ell", model["ell"])
    if ell <= 2.0 * max(dx):
        raise ValidationError("model.ell", f"horizon {ell!r} must exceed twice the "
                                           f"largest spacing {max(dx)!r}")
    attract = parse_int("model.attract", model["attract"])
    if attract not in (1, -1):
        raise ValidationError("model.attract", "attract must be 1 or -1")

    exprs = {}
    for key in ("alpha", "beta", "a", "b"):
        exprs[key] = _parse_expr("coefficients", key, parser["coefficients"][key], dim)
    for key in ("u0", "w0"):
        exprs[key] = _parse_expr("initial", key, parser["initial"][key], dim)

    timing = parser["time"]
    horizon = _parse_float("time.T", timing["T"])
    dt = _parse_float("time.dt", timing["dt"])
    schemes = parser["schemes"]
    scheme_kind = schemes["parabolic"].strip()
    if scheme_kind not in ("implicit_euler", "crank_nicolson"):
        raise ValidationError("schemes.parabolic", f"unknown scheme {scheme_kind!r}")
    hyperbolic_kind = schemes.get("hyperbolic", "upwind").strip()
    if hyperbolic_kind != "upwind":
        raise ValidationError("schemes.hyperbolic", f"unknown scheme {hyperbolic_kind!r}")
    picard_tol = _parse_float("schemes.picard_tol", schemes.get("picard_tol", "1e-8"))
    if picard_tol <= 0:
        raise ValidationError("schemes.picard_tol", f"must be positive, got {picard_tol!r}")
    picard_max_iter = parse_int("schemes.picard_max_iter",
                                schemes.get("picard_max_iter", "12"))
    if picard_max_iter < 1:
        raise ValidationError("schemes.picard_max_iter",
                              f"must be at least 1, got {picard_max_iter}")
    output = parser["output"]
    formats = tuple(
        f.strip() for f in output.get("formats", "csv,json").split(",") if f.strip()
    )
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValidationError("output.formats", f"unknown format {fmt!r}")
    seed = check_seed(parse_int("output.seed", output.get("seed", "0")))
    try:
        return Scenario(
            domain=domain,
            n_cells=n_cells,
            mu=mu,
            ell=ell,
            kappa=kappa,
            attract=attract,
            alpha=exprs["alpha"], beta=exprs["beta"],
            a=exprs["a"], b=exprs["b"],
            u0=exprs["u0"], w0=exprs["w0"],
            horizon=horizon,
            dt=dt,
            snapshot_every=parse_int("time.snapshot_every", timing["snapshot_every"]),
            parabolic_scheme=scheme_kind,
            picard_tol=picard_tol,
            picard_max_iter=picard_max_iter,
            k_alpha=_parse_float("model.K_alpha", model["K_alpha"]),
            k_beta=_parse_float("model.K_beta", model["K_beta"]),
            out_dir=output["directory"].strip(),
            formats=formats,
            seed=seed,
        )
    except ScenarioRuleError as exc:
        raise ValidationError(exc.key, str(exc)) from None


def _parse_expr(section: str, key: str, raw: str, dim: int) -> ex.Expr:
    try:
        tree = ex.parse(raw, _SLOTS[key])
    except ex.ForbiddenVariable as exc:
        raise ValidationError(f"{section}.{key}", str(exc)) from None
    except ex.ExprSyntaxError as exc:
        raise ValidationError(f"{section}.{key}", str(exc)) from None
    if dim == 1 and "y" in ex.variables(tree):
        raise ValidationError(f"{section}.{key}", "variable 'y' used in a 1D scenario")
    return tree


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path) from None
    return parse_scenario_text(text, source=path)


def scenario_to_text(s: Scenario) -> str:
    """Render a Scenario back to the file format; round-trips to an equal value."""
    bounds = ";".join(f"{repr(lo)},{repr(hi)}" for lo, hi in s.domain.bounds)
    lines = [
        SCENARIO_HEADER,
        "[domain]",
        f"dim = {s.domain.dim}",
        f"bounds = {bounds}",
        f"n_cells = {','.join(str(n) for n in s.n_cells)}",
        "",
        "[model]",
        f"mu = {repr(s.mu)}",
        f"ell = {repr(s.ell)}",
        f"kappa = {repr(s.kappa)}",
        f"attract = {s.attract}",
        f"K_alpha = {repr(s.k_alpha)}",
        f"K_beta = {repr(s.k_beta)}",
        "",
        "[coefficients]",
        f"alpha = {ex.to_source(s.alpha)}",
        f"beta = {ex.to_source(s.beta)}",
        f"a = {ex.to_source(s.a)}",
        f"b = {ex.to_source(s.b)}",
        "",
        "[initial]",
        f"u0 = {ex.to_source(s.u0)}",
        f"w0 = {ex.to_source(s.w0)}",
        "",
        "[time]",
        f"T = {repr(s.horizon)}",
        f"dt = {repr(s.dt)}",
        f"snapshot_every = {s.snapshot_every}",
        "",
        "[schemes]",
        f"parabolic = {s.parabolic_scheme}",
        f"picard_tol = {repr(s.picard_tol)}",
        f"picard_max_iter = {s.picard_max_iter}",
        "",
        "[output]",
        f"directory = {s.out_dir}",
        f"formats = {','.join(s.formats)}",
        f"seed = {s.seed}",
        "",
    ]
    return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _snapshot_indices(n_times: int, every: int) -> list[int]:
    """Every ``every``-th output time, and the last one."""
    indices = list(range(0, n_times, every))
    if indices[-1] != n_times - 1:
        indices.append(n_times - 1)
    return indices


def write_norms_csv(trace: CoupledTrace, path: str, every: int = 1) -> None:
    rows = ["t,u_l1,u_linf,u_tv,w_l1,w_linf,w_tv"]
    for i in _snapshot_indices(len(trace.times), every):
        rows.append(",".join(_fmt(v) for v in (
            trace.times[i], trace.u_l1[i], trace.u_linf[i], trace.u_tv[i],
            trace.w_l1[i], trace.w_linf[i], trace.w_tv[i],
        )))
    with open(path, "w", encoding="ascii") as handle:
        handle.write(NORMS_HEADER + "\n" + "\n".join(rows) + "\n")


def write_snapshots(trace: CoupledTrace, directory: str, every: int = 1) -> None:
    os.makedirs(directory, exist_ok=True)
    grid = trace.grid
    columns = ",".join(["x", "y"][: grid.dim] + ["u", "w"])
    # one row per cell: its coordinates, u, w; '%.17g' % v is _fmt(v).  The
    # coordinates are the same in every snapshot, so they are formatted once
    # into a template that takes each cell's u, w.
    row = ",".join(["%.17g"] * grid.dim) + ",%%.17g,%%.17g"
    body = "\n".join([row % tuple(c) for c in grid.center_points().tolist()]) + "\n"
    values = np.empty((grid.total_cells, 2))
    for snap_no, i in enumerate(_snapshot_indices(len(trace.times), every)):
        values[:, 0] = trace.u.values[i].ravel()
        values[:, 1] = trace.w.values[i].ravel()
        name = os.path.join(directory, f"snapshot_{snap_no:04d}.csv")
        with open(name, "w", encoding="ascii") as handle:
            handle.write(f"{SNAPSHOT_HEADER} t={_fmt(trace.times[i])}\n{columns}\n")
            handle.write(body % tuple(values.ravel().tolist()))


def _json_chunks(value, pad: str, memo: dict[bytes, str]):
    """The text of ``json.dump(value, indent=2, sort_keys=True,
    allow_nan=False)`` at indentation ``pad``, in chunks, for dicts with str
    keys, lists, tuples and JSON scalars.

    A list of floats is one chunk, its items formatted with
    ``float.__repr__`` as json formats them.  Each distinct list is
    formatted once: ``memo`` maps its float64 bytes (so ``-0.0`` and ``0.0``
    differ) to its items joined by a comma and a newline, which any depth
    re-indents.
    A non-finite float raises ValueError.
    """
    if isinstance(value, dict) and value:
        inner = pad + "  "
        opener = "{\n" + inner
        for key in sorted(value):
            yield opener + json.dumps(key) + ": "
            yield from _json_chunks(value[key], inner, memo)
            opener = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if set(map(type, value)) == {float}:
            key = np.array(value, dtype=np.float64).tobytes()
            text = memo.get(key)
            if text is None:
                if not np.all(np.isfinite(np.frombuffer(key))):
                    raise ValueError("Out of range float values are not JSON compliant")
                text = memo[key] = ",\n".join(map(float.__repr__, value))
            yield "[\n" + inner + text.replace("\n", "\n" + inner) + "\n" + pad + "]"
            return
        opener = "[\n" + inner
        for item in value:
            yield opener
            yield from _json_chunks(item, inner, memo)
            opener = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        # scalars, {} and []
        yield json.dumps(value, allow_nan=False)


def write_bounds_json(report: BoundsReport, path: str) -> None:
    """The report as ``json.dump(report.to_dict(), indent=2, sort_keys=True,
    allow_nan=False)`` writes it, and a newline; ``_json_chunks`` formats
    each distinct list of floats once."""
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(_json_chunks(report.to_dict(), "", {}))
        handle.write("\n")


def write_picard_log(trace: CoupledTrace, path: str) -> None:
    lines = []
    for k, wl in enumerate(trace.window_logs):
        for i, d in enumerate(wl.diffs, start=1):
            lines.append(
                f"window {k} [{_fmt(wl.t0)}, {_fmt(wl.t1)}] iteration {i} diff {_fmt(d)}"
            )
        lines.append(
            f"window {k} converged={wl.converged} iterations={wl.iterations} stop={wl.stop}"
        )
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunArtifacts:
    """Where ``write_run_artifacts`` wrote each artifact; None for one the
    scenario's formats leave out."""

    norms_csv: str | None
    snapshot_dir: str | None
    bounds_json: str | None
    picard_log: str

    def written(self) -> list[str]:
        """The paths written, in the order of the fields."""
        return [path for path in (self.norms_csv, self.snapshot_dir, self.bounds_json,
                                  self.picard_log) if path is not None]


def write_run_artifacts(trace: CoupledTrace, report: BoundsReport,
                        scenario: Scenario, out_dir: str) -> RunArtifacts:
    """Write ``norms.csv`` and ``snapshots/`` (csv), ``bounds.json`` (json)
    and ``picard.log`` (always) into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    as_csv, as_json = "csv" in scenario.formats, "json" in scenario.formats
    paths = RunArtifacts(
        norms_csv=os.path.join(out_dir, "norms.csv") if as_csv else None,
        snapshot_dir=os.path.join(out_dir, "snapshots") if as_csv else None,
        bounds_json=os.path.join(out_dir, "bounds.json") if as_json else None,
        picard_log=os.path.join(out_dir, "picard.log"),
    )
    every = scenario.snapshot_every
    if as_csv:
        write_norms_csv(trace, paths.norms_csv, every)
        write_snapshots(trace, paths.snapshot_dir, every)
    if as_json:
        write_bounds_json(report, paths.bounds_json)
    write_picard_log(trace, paths.picard_log)
    return paths
