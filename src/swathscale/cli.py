"""Command-line frontend: solve, generate, reduce-alpha, validate.

Instance files are auto-detected by suffix: ``.dat-s`` is sparse SDPA
(with an optional ``<stem>.start.json`` sidecar carrying the interior
start matrix), ``.json`` is the hyperbolic-program schema; a ``--trace``
path ending in ``.json`` gets a JSON trace, any other a CSV trace.

Exit codes, one rule for every command:

- 0: success.
- 1: ``validate`` ran and a check failed.
- 2: the run ended ``not_in_swath`` (a start point outside the swath, or
  an unbounded program), ``reduce-alpha`` ended outside the target swath,
  or a typed error other than those of code 3 was raised once the solve
  (or ``validate``'s checks) started.
- 3: the run ended ``numerical_failure`` or ``max_iters``, or a
  ``NumericalFailure`` or ``RetryExhausted`` was raised at any stage.
- 4: a usage error, an ``OSError`` at any stage (a path that cannot be
  read or written), or any other typed error before the solve starts: an
  option out of range, or an instance that fails the checks in ``core``,
  which are the same for both formats (dependent constraints, a start
  point off ``A e0 = b`` or outside the open cone).
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

import click
import numpy as np

from . import diagnostics, generate, hpjson, sdpa, tracefile
from .core import check_start, schedule_constants
from .driver import (
    RunStatus,
    SolverConfig,
    StepMode,
    alpha_reduction_bound,
    alpha_reduction_run,
    run,
)
from .errors import (
    DomainError,
    NumericalFailure,
    ParseError,
    RetryExhausted,
    SwathscaleError,
)
from .hyperbolic import DETERMINANT, ELEMENTARY_SYMMETRIC, PRODUCT, SECOND_ORDER
from .sdp import det_barrier_oracle, smat, svec, sym_dim
from .sdpa import parse_sdpa
from .subproblem import in_swath

_EXIT_NOT_IN_SWATH = 2
_EXIT_NUMERICAL = 3
_EXIT_PARSE = 4

_STATUS_EXIT = {
    RunStatus.CONVERGED: 0,
    RunStatus.MAX_ITERS: _EXIT_NUMERICAL,
    RunStatus.NOT_IN_SWATH: _EXIT_NOT_IN_SWATH,
    RunStatus.NUMERICAL_FAILURE: _EXIT_NUMERICAL,
}


def _start_sidecar(path: pathlib.Path) -> pathlib.Path:
    stem = path.name[: -len(".dat-s")] if path.name.endswith(".dat-s") else path.stem
    return path.with_name(stem + ".start.json")


def _load_problem(path: pathlib.Path):
    """Return (oracle, A, b, c, e0, meta) for either instance format.

    For SDPA files ``meta["instance"]`` is the parsed ``SdpInstance``.
    """
    text = path.read_text()
    if path.name.endswith(".dat-s"):
        inst = parse_sdpa(text)
        sidecar = _start_sidecar(path)
        if not sidecar.exists():
            raise ParseError(f"missing start-point file {sidecar}")
        E0 = hpjson.read_start_point(sidecar.read_text())
        if E0.shape[0] != inst.n:
            raise ParseError("start matrix order does not match the instance")
        A, e0, oracle = inst.constraint_rows(), svec(E0), det_barrier_oracle(inst.n)
        check_start(A, inst.b, e0, oracle)
        meta = {
            "backend": "sdp", "n": inst.n, "m": inst.m, "id": path.name,
            "instance": inst,
        }
        return oracle, A, inst.b, svec(inst.C), e0, meta
    if path.suffix == ".json":
        inst = hpjson.read_hp_json(text)
        meta = {
            "backend": inst.family.name,
            "n": inst.family.degree,
            "m": inst.A.shape[0],
            "id": path.name,
        }
        return inst.oracle, inst.A, inst.b, inst.c, inst.e0, meta
    raise ParseError(f"unrecognized instance suffix on {path.name}")


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_codes(solving: bool):
    """Map an error of one stage of a command to its exit code.

    ``solving`` is false while the options and the instance are read, and
    true from the solve (or ``validate``'s checks) on.  The module
    docstring states the rule.
    """
    try:
        yield
    except OSError as exc:
        _fail(exc, _EXIT_PARSE)
    except (NumericalFailure, RetryExhausted) as exc:
        _fail(exc, _EXIT_NUMERICAL)
    except SwathscaleError as exc:
        _fail(exc, _EXIT_NOT_IN_SWATH if solving else _EXIT_PARSE)


class _Group(click.Group):
    """Ends a usage error, which click exits with 2, with the input-error code."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = _EXIT_PARSE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = _EXIT_PARSE
            raise


@click.group(cls=_Group)
def main():
    """Affine-scaling interior-point solver for SDP and hyperbolic programs."""


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=pathlib.Path))
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option(
    "--step",
    type=click.Choice(["qtilde", "fixed"]),
    default="qtilde",
    show_default=True,
)
@click.option("--trace", "trace_path", type=click.Path(path_type=pathlib.Path))
def solve(file, alpha, tol, max_iters, step, trace_path):
    """Run the solver on an instance file."""
    with _exit_codes(solving=False):
        config = SolverConfig(
            alpha=alpha,
            gap_tol=tol,
            max_iters=max_iters,
            step_mode=StepMode(step),
        )
        oracle, A, b, c, e0, meta = _load_problem(file)
        if trace_path is not None:
            # Opened for appending, which creates the file and keeps any
            # contents, so an unwritable path fails before the solve.
            with trace_path.open("a"):
                pass
    with _exit_codes(solving=True):
        result = run(oracle, A, b, c, e0, config)
        if trace_path is not None:
            header = tracefile.trace_header(
                meta["id"], meta["backend"], config, meta["n"], meta["m"]
            )
            fmt = "json" if trace_path.suffix == ".json" else "csv"
            trace_path.write_text(tracefile.export_trace(result, header, fmt))

    footer = tracefile.trace_footer(result)
    click.echo(
        f"status={footer['status']} iterations={footer['iterations']} "
        f"final_gap={footer['final_gap']:.6e} violations={footer['violations']}"
    )
    sys.exit(_STATUS_EXIT[result.status])


@main.command()
@click.argument("kind", type=click.Choice(["sdp", "hp"]))
@click.option(
    "--n",
    type=int,
    required=True,
    help="matrix order (sdp, hp determinant) or ambient dim (other hp families)",
)
@click.option("--m", type=int, required=True, help="number of constraints")
@click.option(
    "--family",
    type=click.Choice([PRODUCT, SECOND_ORDER, DETERMINANT, ELEMENTARY_SYMMETRIC]),
    default=PRODUCT,
    show_default=True,
)
@click.option("--k", type=int, default=None, help="elementary-symmetric degree")
@click.option("--mu", type=float, default=1.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(path_type=pathlib.Path), required=True)
def generate_cmd(kind, n, m, family, k, mu, seed, out):
    """Write a random solvable instance plus its interior start point."""
    with _exit_codes(solving=False):
        if kind == "sdp":
            inst, E0 = generate.gen_central_path_sdp(n, m, mu, seed)
            stem = out.name[: -len(".dat-s")] if out.name.endswith(".dat-s") else out.name
            inst_path = out.with_name(stem + ".dat-s")
            inst_path.write_text(sdpa.write_sdpa(inst))
            _start_sidecar(inst_path).write_text(hpjson.write_start_point(E0))
            click.echo(f"wrote {inst_path} and {_start_sidecar(inst_path)}")
        else:
            if family == DETERMINANT:
                fam = hpjson.family_from_tag(family, sym_dim(n))
            else:
                fam = hpjson.family_from_tag(family, n, k)
            inst, _ = generate.gen_hp_instance(fam, m, mu, seed)
            inst_path = out if out.suffix == ".json" else out.with_suffix(".json")
            inst_path.write_text(
                hpjson.write_hp_json(inst, metadata={"mu": mu, "seed": seed})
            )
            click.echo(f"wrote {inst_path}")


main.add_command(generate_cmd, name="generate")


@main.command(name="reduce-alpha")
@click.argument("file", type=click.Path(exists=True, path_type=pathlib.Path))
@click.option("--alpha0", type=float, required=True)
@click.option("--target", type=float, required=True)
def reduce_alpha(file, alpha0, target):
    """Shrink the cone parameter on the fixed-step schedule."""
    with _exit_codes(solving=False):
        bound = alpha_reduction_bound(alpha0, target)
        oracle, A, b, c, e0, _ = _load_problem(file)
    with _exit_codes(solving=True):
        e_final, iterations = alpha_reduction_run(
            oracle, A, b, c, e0, alpha0, target
        )
        ok = in_swath(oracle, A, b, c, e_final, target)
    click.echo(f"iterations={iterations} bound={bound} in_swath(target)={ok}")
    sys.exit(0 if ok else _EXIT_NOT_IN_SWATH)


@main.command()
@click.argument("file", type=click.Path(exists=True, path_type=pathlib.Path))
@click.option(
    "--checks",
    type=click.Choice(["all", "fd", "qscale", "equiv", "bound"]),
    default="all",
    show_default=True,
)
@click.option("--alpha", type=float, default=0.5, show_default=True)
def validate(file, checks, alpha):
    """Run the per-iteration diagnostic oracles at the start point."""
    with _exit_codes(solving=False):
        SolverConfig(alpha=alpha)  # rejects alpha outside (0, 1), as solve does
        oracle, A, b, c, e0, meta = _load_problem(file)
        if meta["backend"] != "sdp" and checks in ("qscale", "equiv", "bound"):
            raise DomainError("requested check applies to SDP instances only")

    reports = []
    with _exit_codes(solving=True):
        if checks in ("all", "fd"):
            reports.append(diagnostics.fd_check(oracle, e0))
        if meta["backend"] == "sdp":
            inst = meta["instance"]
            E0 = smat(e0)
            if checks in ("all", "qscale"):
                reports.append(diagnostics.q_scaling_check(inst, E0, alpha))
            if checks in ("all", "equiv"):
                beta = schedule_constants(alpha, meta["n"]).beta
                grid = np.linspace(-0.5, 3.0, 25)
                reports.append(
                    diagnostics.membership_equiv_check(inst, E0, alpha, beta, grid)
                )
            if checks in ("all", "bound"):
                X, v_norm = diagnostics.boundary_point(
                    E0, alpha, np.random.default_rng(0)
                )
                grid = np.linspace(1e-3, alpha / v_norm, 20)
                reports.append(diagnostics.decrease_bound_check(E0, X, alpha, grid))

    failed = False
    for rep in reports:
        click.echo(
            f"{rep.name}: {'pass' if rep.passed else 'FAIL'} "
            f"(max_rel_err={rep.max_rel_err:.3e}, samples={rep.samples})"
        )
        failed = failed or not rep.passed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
