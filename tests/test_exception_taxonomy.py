"""Every failure type of the oracles says on which side it stands.

A query that cannot be certified raises a subclass of the one
``OracleIndeterminate`` class: ``reconstruct`` counts it as an indeterminate
query and the command line exits 3 on it.  The few failures that mean
something else (an unbounded candidate region, a broken construction, an
answer that contradicts the hull) stay outside that family.  Both sides are
listed here by name, so a new failure type has to choose one.
"""

import ast
import inspect

from newtonpoly import cli, eval_oracle, reconstruct, slp, witness_oracle
from newtonpoly.slp import OracleIndeterminate

ORACLE_MODULES = (eval_oracle, witness_oracle, reconstruct)

INDETERMINATE = {
    "eval_oracle.EvaluationZeroError",
    "eval_oracle.NoConvergenceError",
    "eval_oracle.NoUniqueCandidateError",
    "eval_oracle.NotGenericError",
    "eval_oracle.StretchOverflowError",
    "reconstruct.OracleExhausted",
    "witness_oracle.DegreeMismatchError",
    "witness_oracle.GenericityFailure",
    "witness_oracle.IndeterminateError",
    "witness_oracle.PathCrossingError",
    "witness_oracle.RateViolationError",
    "witness_oracle.RootCoincidenceError",
    "witness_oracle.TrackingFailureError",
}
OUTSIDE = {
    "eval_oracle.UnboundedError",
    "reconstruct.OracleInconsistent",
    "witness_oracle.AmbiguousClusterError",
}


def _exception_classes(module):
    """The exception classes a module defines (not the ones it imports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    }


def _sides():
    inside, outside = set(), set()
    for module in ORACLE_MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, cls in _exception_classes(module).items():
            (inside if issubclass(cls, OracleIndeterminate) else outside).add(f"{short}.{name}")
    return inside, outside


def test_every_failure_type_chooses_its_side():
    inside, outside = _sides()
    assert inside == INDETERMINATE
    assert outside == OUTSIDE


def test_there_is_one_indeterminate_class():
    assert reconstruct.OracleIndeterminate is slp.OracleIndeterminate


def test_user_direction_failures_stay_value_errors():
    # the command line reports a user-given direction that ties candidates or
    # needs a stretch beyond a double as bad input (exit 2)
    assert issubclass(eval_oracle.NotGenericError, ValueError)
    assert issubclass(eval_oracle.StretchOverflowError, ValueError)


def test_the_cli_defines_no_indeterminate_wrapper():
    assert set(_exception_classes(cli)) == {"InputError"}
    assert not issubclass(cli.InputError, OracleIndeterminate)


def _resolve(module, node):
    """The module-level object an ``except`` clause names, or None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, None)
    if isinstance(node, ast.Attribute):
        owner = _resolve(module, node.value)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def _catches_oracle_failure(module, handler) -> bool:
    """Whether the handler catches an indeterminate query or any failure type
    that an oracle module defines."""
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for name in names:
        caught = _resolve(module, name)
        if inspect.isclass(caught) and (
            issubclass(caught, OracleIndeterminate) or caught.__module__ in {m.__name__ for m in ORACLE_MODULES}
        ):
            return True
    return False


def test_no_handler_rewraps_an_oracle_failure():
    rewraps = []
    for module in ORACLE_MODULES + (cli,):
        tree = ast.parse(inspect.getsource(module))
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                continue
            if not _catches_oracle_failure(module, handler):
                continue
            for node in ast.walk(handler):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    rewraps.append(f"{module.__name__}:{node.lineno}")
    assert rewraps == []


def test_the_rewrap_scan_sees_handlers():
    # make_line retries a line on two failure types: the scan must find that handler
    tree = ast.parse(inspect.getsource(witness_oracle))
    handlers = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type is not None]
    assert any(_catches_oracle_failure(witness_oracle, h) for h in handlers)
