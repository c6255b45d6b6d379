"""Every random draw comes from a generator the caller passed in.

A function that draws takes its ``random.Random`` as a required argument, so
no result can depend on a hidden default generator.
"""

import inspect

from newtonpoly import eval_oracle, reconstruct, witness_oracle


def _public_signatures():
    """Signatures of the public functions, classes (their constructors or
    dataclass fields) and methods of the three oracle modules."""
    for module in (eval_oracle, reconstruct, witness_oracle):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", inspect.signature(obj)
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{module.__name__}.{name}", inspect.signature(obj)
                for attr, member in vars(obj).items():
                    if isinstance(member, classmethod) or (inspect.isfunction(member) and not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", inspect.signature(getattr(obj, attr))


SIGNATURES = dict(_public_signatures())


def test_the_scan_sees_every_drawing_function():
    drawing = [name for name, sig in SIGNATURES.items() if "rng" in sig.parameters]
    assert sorted(drawing) == [
        "newtonpoly.eval_oracle.adaptive_superset",
        "newtonpoly.eval_oracle.support_estimate",
        "newtonpoly.eval_oracle.vertex_query",
        "newtonpoly.reconstruct.EvalVertexOracle",
        "newtonpoly.reconstruct.EvalVertexOracle.adaptive",
        "newtonpoly.reconstruct.EvalVertexOracle.from_bounds",
        "newtonpoly.reconstruct.facet_query_direction",
        "newtonpoly.reconstruct.random_direction",
        "newtonpoly.witness_oracle.WitnessConfig",
        "newtonpoly.witness_oracle.make_line",
    ]


def test_no_rng_parameter_or_field_has_a_default():
    defaulted = [
        name for name, sig in SIGNATURES.items()
        if "rng" in sig.parameters and sig.parameters["rng"].default is not inspect.Parameter.empty
    ]
    assert defaulted == []
