import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from newtonpoly import eval_oracle as ev
from newtonpoly import polytope as pt
from newtonpoly import reconstruct as rc
from newtonpoly import witness_oracle as wo
from newtonpoly.cli import main
from newtonpoly.reconstruct import ReconstructConfig

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "newtonpoly" / "fixtures"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSupport:
    def test_discriminant_direction(self, capsys):
        code, out, _ = run_cli(
            ["support", "--sparse", str(FIXTURES / "disc.poly"), "--w", "1,0,1"], capsys
        )
        assert code == 0
        records = json.loads(out)
        assert records[0]["h"] == "2"
        assert records[0]["vertex"] is None
        assert records[0]["estimates"]

    def test_coordinate_sums_of_f1(self, capsys):
        code, out, _ = run_cli(
            ["support", "--sparse", str(FIXTURES / "f1.poly"), "--w", "1,1,1,1,1,1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)[0]["h"] == "3"

    def test_constant_program(self, capsys, tmp_path):
        slp = tmp_path / "const5.slp"
        slp.write_text("const 5\n")
        code, out, _ = run_cli(["support", "--slp", str(slp), "--w", "1,1"], capsys)
        assert code == 0
        assert json.loads(out)[0]["h"] == "0"

    @pytest.mark.parametrize("order", [("1,0", "0,1,0"), ("0,1,0", "1,0")])
    def test_slp_fits_each_direction_alone(self, capsys, tmp_path, order):
        # x1 * x2 read in 2 and in 3 variables, in either order
        slp = tmp_path / "xy.slp"
        slp.write_text("in 1\nin 2\nmul r1 r2\n")
        args = ["support", "--slp", str(slp)]
        for w in order:
            args += ["--w", w]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert [record["h"] for record in json.loads(out)] == ["1", "1"]

    def test_stretch_beyond_a_double_is_reported_as_its_log(self, capsys):
        # the schedule for this direction passes tau = 709.8, where exp(tau)
        # overflows a double
        code, out, _ = run_cli(
            ["support", "--sparse", str(FIXTURES / "disc.poly"), "--w", "1/1000,0,1"], capsys
        )
        assert code == 0
        record = json.loads(out)[0]
        assert record["h"] == "1001/1000"
        assert record["log_t_used"] == record["estimates"][-1][0] > 709.8

    def test_direction_file(self, capsys, tmp_path):
        directions = tmp_path / "dirs.txt"
        directions.write_text("1 0 1\n0 1 0\n")
        code, out, _ = run_cli(
            ["support", "--sparse", str(FIXTURES / "disc.poly"), "--directions", str(directions)],
            capsys,
        )
        assert code == 0
        values = [record["h"] for record in json.loads(out)]
        assert values == ["2", "2"]

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("nonsense\n")
        code, _, err = run_cli(["support", "--sparse", str(bad), "--w", "1"], capsys)
        assert code == 2 and "error" in err


class TestVertex:
    def test_eval_backend_quadric_example(self, capsys):
        code, out, _ = run_cli(
            [
                "vertex",
                "--backend",
                "eval",
                "--sparse",
                str(FIXTURES / "disc.poly"),
                "--delta",
                "2",
                "--lambda",
                "2",
                "--superset",
                str(FIXTURES / "disc_superset.pts"),
                "--w=-1.2,0.4,3.7",
                "--t",
                "45",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["vertex"] == [1, 0, 1]
        assert abs(record["ratio"] - 2.864) < 0.005

    def test_witness_backend_both_directions(self, capsys):
        config = str(FIXTURES / "quad_witness.json")
        code, out, _ = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", config, "--w", "1,1"],
            capsys,
        )
        assert code == 0 and json.loads(out)["vertex"] == [2, 0]
        code, out, _ = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", config, "--w=-1,-1"],
            capsys,
        )
        assert code == 0 and json.loads(out)["vertex"] == [0, 0]

    def test_monomial_adaptive(self, capsys, tmp_path):
        mono = tmp_path / "mono.poly"
        mono.write_text("4 : 3 2\n")
        code, out, _ = run_cli(
            ["vertex", "--backend", "eval", "--sparse", str(mono), "--adaptive", "--w", "2,-1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["vertex"] == [3, 2]

    def test_witness_slp_backend_config(self, capsys, tmp_path):
        program = tmp_path / "quad.slp"
        program.write_text(
            "in 1\nin 2\nmul r1 r1\nconst 3\nmul r4 r1\nadd r3 r5\n"
            "const 2\nmul r7 r2\nadd r6 r8\nconst -5\nadd r9 r10\n"
        )
        config = tmp_path / "witness.json"
        config.write_text(
            json.dumps(
                {
                    "backend": {"type": "slp", "path": "quad.slp"},
                    "degree": 2,
                    "C": 5.0,
                    "seed": 0,
                    "t_max": 1e8,
                    "line": {"a": [[2, 1], [3, -2]], "b": [[-1, -1], [2, -3]]},
                }
            )
        )
        code, out, _ = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", str(config), "--w", "1,1"],
            capsys,
        )
        assert code == 0 and json.loads(out)["vertex"] == [2, 0]

    def test_witness_trace_csv(self, capsys):
        config = str(FIXTURES / "quad_witness.json")
        code, out, _ = run_cli(
            [
                "vertex",
                "--backend",
                "witness",
                "--witness-config",
                config,
                "--w",
                "1,1",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "path_id,t,re_s,im_s,residual"
        assert len(lines) > 10

    def test_witness_trace_csv_is_the_certified_paths(self, capsys, monkeypatch):
        # the first classification fails, so the certificate comes from a perturbed w
        certificates = []
        query, classify = wo.witness_vertex_query, wo.classify_paths
        forced = [wo.IndeterminateError("forced retry")]

        def capture(*args, **kwargs):
            certificates.append(query(*args, **kwargs))
            return certificates[-1]

        def fail_once(*args, **kwargs):
            if forced:
                raise forced.pop()
            return classify(*args, **kwargs)

        monkeypatch.setattr(wo, "witness_vertex_query", capture)
        monkeypatch.setattr(wo, "classify_paths", fail_once)
        config = str(FIXTURES / "quad_witness.json")
        code, out, _ = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", config, "--w", "1,1", "--format", "csv"],
            capsys,
        )
        assert code == 0
        (cert,) = certificates
        assert cert.w != (1.0, 1.0) and cert.paths
        rows = [
            f"{idx},{t!r},{s.real!r},{s.imag!r},{res:.3e}"
            for idx, path in enumerate(cert.paths)
            for t, s, res in path.samples
        ]
        assert out.strip().splitlines()[1:] == rows

    def test_witness_tracking_failure_exits_3(self, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise wo.TrackingFailureError("corrector stalled")

        monkeypatch.setattr(wo, "witness_vertex_query", stall)
        config = str(FIXTURES / "quad_witness.json")
        code, _, err = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", config, "--w", "1,1"], capsys
        )
        assert code == 3
        assert "indeterminate: corrector stalled" in err

    def test_adaptive_tie_is_retried_inside_the_normal_cone(self, capsys):
        # (1, 1, 1) ties both terms of b^2 - 4ac; a tilt inside its cone picks one
        code, out, _ = run_cli(
            ["vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"), "--adaptive", "--w", "1,1,1"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert tuple(record["vertex"]) in {(0, 2, 0), (1, 0, 1)} and record["h"] == "2"

    @pytest.mark.parametrize(
        "args, u",
        [
            (["--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"), "--adaptive", "--w", "0,1/2,0"], (0, 1, 0)),
            (["--backend", "witness", "--witness-config", str(FIXTURES / "quad_witness.json"), "--w", "0,1"], (0, 1)),
        ],
        ids=["eval", "witness"],
    )
    def test_retried_directions_are_facet_tilts(self, args, u, capsys, monkeypatch):
        # every query after w's own is a facet_query_direction tilt of u, w
        # scaled to integers, and no tilt entry is zero
        asked, drawn = [], []
        tilt = rc.facet_query_direction

        def record_tilt(normal, coord_bound, r_bound, rng):
            drawn.append((tuple(normal), coord_bound, r_bound, tilt(normal, coord_bound, r_bound, rng)))
            return drawn[-1][-1]

        def refuse(self, w):
            asked.append(tuple(w))
            raise rc.OracleIndeterminate("forced")

        monkeypatch.setattr(rc, "facet_query_direction", record_tilt)
        monkeypatch.setattr(rc.EvalVertexOracle, "query", refuse)
        monkeypatch.setattr(rc.WitnessVertexOracle, "query", refuse)
        code, _, err = run_cli(["vertex"] + args, capsys)
        assert code == 3 and err == "indeterminate: forced\n"
        w = tuple(Fraction(x) for x in args[-1].split(","))
        assert asked == [w] + [d for *_, d in drawn]
        assert len(drawn) == ReconstructConfig.facet_retries
        for normal, coord_bound, r_bound, d in drawn:
            assert normal == u
            m = len(normal) * r_bound * coord_bound + 1
            assert all(0 < abs(di - m * ui) <= r_bound for di, ui in zip(d, normal))

    def test_witness_retry_stays_on_the_exposed_face(self, capsys, tmp_path):
        # (1/20, 1/10) ties x^2 and y; seed 36 draws a retry tilt that, at
        # size 1/8, would expose the constant term and print h = 0
        config = tmp_path / "w.json"
        config.write_text(_quad_config(seed=36)["w.json"])
        code, out, _ = run_cli(
            ["vertex", "--backend", "witness", "--witness-config", str(config), "--w", "1/20,1/10"], capsys
        )
        assert code == 0
        assert json.loads(out)["h"] == "1/10"


QUAD_CONFIG = json.loads((FIXTURES / "quad_witness.json").read_text())


def _quad_config(**changes) -> dict:
    """The quad witness config, pointing at the fixture, with some entries replaced."""
    config = dict(QUAD_CONFIG, backend={"type": "sparse", "path": str(FIXTURES / "quad.poly")})
    config.update(changes)
    return {"w.json": json.dumps(config)}


WITNESS_VERTEX = ["vertex", "--backend", "witness", "--witness-config", "w.json", "--w", "1,1"]
DISC_VERTEX = [
    "vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"),
    "--superset", str(FIXTURES / "disc_superset.pts"), "--w", "7,3,2",
]
DISC_RECONSTRUCT = [
    "reconstruct", "--sparse", str(FIXTURES / "disc.poly"), "--superset", str(FIXTURES / "disc_superset.pts"),
]

BAD_INPUTS = {
    "superset-rational-entry": (
        {"s.pts": "1/2 0 1\n0 2 0\n"},
        [
            "vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"), "--superset", "s.pts",
            "--w", "1,0,1", "--delta", "2", "--lambda", "2",
        ],
    ),
    "witness-line-not-pairs": (_quad_config(line={"a": 5}), WITNESS_VERTEX),
    "witness-line-wrong-length": (_quad_config(line={"a": [[2, 1]], "b": [[-1, -1], [2, -3]]}), WITNESS_VERTEX),
    "witness-t-max-not-a-number": (_quad_config(t_max="abc"), WITNESS_VERTEX),
    "witness-t-max-flag-below-1": (_quad_config(), WITNESS_VERTEX + ["--t-max", "-5"]),
    "witness-degree-not-an-integer": (_quad_config(degree="x"), WITNESS_VERTEX),
    "witness-C-not-a-number": (_quad_config(C="big"), WITNESS_VERTEX),
    "witness-seed-not-an-integer": (_quad_config(seed=1.5), WITNESS_VERTEX),
    "reconstruct-delta-below-1": (
        {},
        [
            "reconstruct", "--sparse", str(FIXTURES / "disc.poly"),
            "--superset", str(FIXTURES / "disc_superset.pts"), "--delta", "0.5",
        ],
    ),
    "reconstruct-duplicate-superset": (
        {"s.pts": "1 0 1\n0 2 0\n1 0 1\n"},
        ["reconstruct", "--sparse", str(FIXTURES / "disc.poly"), "--superset", "s.pts"],
    ),
    "witness-config-not-an-object": (
        {"w.json": "[1, 2]"},
        ["vertex", "--backend", "witness", "--witness-config", "w.json", "--w", "1,1"],
    ),
    "witness-sparse-backend-does-not-parse": (
        {"w.json": json.dumps({"backend": {"type": "sparse", "path": "bad.poly"}}), "bad.poly": "nonsense\n"},
        ["reconstruct", "--backend", "witness", "--witness-config", "w.json"],
    ),
    "witness-sparse-backend-zero-polynomial": (
        {"w.json": json.dumps({"backend": {"type": "sparse", "path": "zero.poly"}}), "zero.poly": "0 : 0 0\n"},
        ["vertex", "--backend", "witness", "--witness-config", "w.json", "--w", "1,1"],
    ),
    "witness-slp-backend-does-not-parse": (
        {"w.json": json.dumps({"backend": {"type": "slp", "path": "bad.slp"}}), "bad.slp": "frobnicate r1\n"},
        ["vertex", "--backend", "witness", "--witness-config", "w.json", "--w", "1,1"],
    ),
    "support-zero-direction": (
        {},
        ["support", "--sparse", str(FIXTURES / "f1.poly"), "--w", "0,0,0,0,0,0"],
    ),
    "adaptive-vertex-zero-direction": (
        {},
        ["vertex", "--backend", "eval", "--adaptive", "--sparse", str(FIXTURES / "f1.poly"), "--w", "0,0,0,0,0,0"],
    ),
    "vertex-bounds-direction-ties-candidates": ({}, DISC_VERTEX[:-1] + ["1,1,1"]),
    "witness-vertex-zero-direction": (_quad_config(), WITNESS_VERTEX[:-1] + ["0,0"]),
    "vertex-t-below-1": ({}, DISC_VERTEX + ["--t", "0.5"]),
    # only the --superset query reads --t, and a vertex query has one direction
    "vertex-adaptive-t": (
        {},
        ["vertex", "--backend", "eval", "--adaptive", "--sparse", str(FIXTURES / "disc.poly"), "--w", "7,3,2", "--t", "2"],
    ),
    "vertex-witness-t": (_quad_config(), WITNESS_VERTEX + ["--t", "2"]),
    # every other oracle option that the chosen backend does not read
    "vertex-adaptive-superset-delta": (
        {},
        [
            "vertex", "--backend", "eval", "--adaptive", "--superset", "/nonexistent.pts", "--delta", "5",
            "--sparse", str(FIXTURES / "disc.poly"), "--w", "7,3,2",
        ],
    ),
    "reconstruct-witness-sparse": (
        {},
        [
            "reconstruct", "--backend", "witness", "--witness-config", str(FIXTURES / "quad_witness.json"),
            "--sparse", "/nonexistent.poly",
        ],
    ),
    "reconstruct-adaptive-lambda": ({}, ["reconstruct", "--sparse", str(FIXTURES / "f1.poly"), "--adaptive", "--lambda", "1"]),
    "reconstruct-superset-t-max": ({}, DISC_RECONSTRUCT + ["--t-max", "100"]),
    "vertex-witness-adaptive": (_quad_config(), WITNESS_VERTEX + ["--adaptive"]),
    "vertex-repeated-w": ({}, DISC_VERTEX + ["--w", "0,0,1"]),
    "vertex-adaptive-repeated-w": (
        {},
        ["vertex", "--backend", "eval", "--adaptive", "--sparse", str(FIXTURES / "disc.poly"), "--w", "1,0,0", "--w", "0,0,1"],
    ),
    "vertex-t-zero": ({}, DISC_VERTEX + ["--t", "0"]),
    "vertex-t-negative": ({}, DISC_VERTEX + ["--t", "-1"]),
    "vertex-t-nan": ({}, DISC_VERTEX + ["--t", "nan"]),
    "vertex-t-inf": ({}, DISC_VERTEX + ["--t", "inf"]),
    "vertex-delta-inf": ({}, DISC_VERTEX + ["--delta", "inf"]),
    "vertex-delta-nan": ({}, DISC_VERTEX + ["--delta", "nan"]),
    "reconstruct-lambda-inf": ({}, DISC_RECONSTRUCT + ["--lambda", "inf"]),
    "reconstruct-lambda-nan": ({}, DISC_RECONSTRUCT + ["--lambda", "nan"]),
    "support-input-not-utf8": ({"f.poly": b"\xff\xfe1 : 1\n"}, ["support", "--sparse", "f.poly", "--w", "1"]),
    "support-direction-entry-overflows": (
        {},
        ["support", "--sparse", str(FIXTURES / "disc.poly"), "--w", "1e400,0,1"],
    ),
    "support-direction-file-entry-overflows": (
        {"d.txt": "0 1 0\n-1e400 0 1\n"},
        ["support", "--sparse", str(FIXTURES / "disc.poly"), "--directions", "d.txt"],
    ),
    "adaptive-vertex-direction-entry-overflows": (
        {},
        ["vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"), "--adaptive", "--w", "1e400,0,1"],
    ),
    "vertex-direction-entry-overflows": (
        {},
        [
            "vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"),
            "--superset", str(FIXTURES / "disc_superset.pts"), "--delta", "2", "--lambda", "2", "--w", "1e400,0,1",
        ],
    ),
    "witness-direction-entry-overflows": (
        {},
        ["vertex", "--backend", "witness", "--witness-config", str(FIXTURES / "quad_witness.json"), "--w", "1e400,1"],
    ),
    "support-direction-entry-underflows": (
        {},
        ["support", "--sparse", str(FIXTURES / "disc.poly"), "--w", "1e-400,0,1"],
    ),
    "support-direction-step-underflows": (
        # both entries are normal doubles, but the values w . beta step by 1/(10^200 3^420)
        {"d.txt": f"1/{10**200} 0 1/{3**420}\n"},
        ["support", "--sparse", str(FIXTURES / "disc.poly"), "--directions", "d.txt"],
    ),
    "adaptive-vertex-direction-entry-underflows": (
        {},
        ["vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"), "--adaptive", "--w", "1e-320,0,1"],
    ),
    "vertex-stretch-factor-overflows": (
        {},
        [
            "vertex", "--backend", "eval", "--sparse", str(FIXTURES / "disc.poly"),
            "--superset", str(FIXTURES / "disc_superset.pts"), "--delta", "2", "--lambda", "2", "--w", "1e-100,0,1",
        ],
    ),
    "witness-direction-entry-underflows": (
        {},
        ["vertex", "--backend", "witness", "--witness-config", str(FIXTURES / "quad_witness.json"), "--w", "1e-400,1"],
    ),
    "out-into-missing-directory": ({"p.pts": "1 2\n"}, ["hull", "--points", "p.pts", "--out", "missing/out.json"]),
    # superset rows of mixed widths, or of a width other than the polynomial's
    # variable count (disc.poly reads 3)
    "reconstruct-superset-mixed-widths": ({"s.pts": "1 0 1\n0 2\n"}, DISC_RECONSTRUCT[:-1] + ["s.pts"]),
    "vertex-superset-mixed-widths": (
        {"s.pts": "1 0 1\n0 2\n"},
        DISC_VERTEX[:5] + ["--superset", "s.pts", "--delta", "2", "--lambda", "2", "--w", "1,0,1"],
    ),
    "reconstruct-superset-too-narrow": ({"s.pts": "1 0\n0 2\n"}, DISC_RECONSTRUCT[:-1] + ["s.pts"]),
    "vertex-superset-too-narrow": (
        {"s.pts": "1 0\n0 2\n"},
        DISC_VERTEX[:5] + ["--superset", "s.pts", "--delta", "2", "--lambda", "2", "--w", "1,0,1"],
    ),
    # commands with no table to print
    "reconstruct-csv": ({}, DISC_RECONSTRUCT + ["--format", "csv"]),
    "reconstruct-adaptive-csv": ({}, ["reconstruct", "--sparse", str(FIXTURES / "f1.poly"), "--adaptive", "--format", "csv"]),
    "vertex-csv": ({}, DISC_VERTEX + ["--format", "csv"]),
    "vertex-adaptive-csv": (
        {},
        ["vertex", "--backend", "eval", "--adaptive", "--sparse", str(FIXTURES / "disc.poly"), "--w", "7,3,2", "--format", "csv"],
    ),
    "hull-csv": ({"p.pts": "1 2\n3 4\n"}, ["hull", "--points", "p.pts", "--format", "csv"]),
    "isom-csv": (
        {},
        ["isom", "--p", str(FIXTURES / "bipyramid.json"), "--q", str(FIXTURES / "bipyramid.json"), "--format", "csv"],
    ),
    "lattice-vertex-not-an-integer": (
        {"p.json": '{"vertices": [[0, 0], [1.5, 0], [0, 1]]}'},
        ["lattice", "--polytope", "p.json"],
    ),
}


ZERO_SLP = {"zero.slp": "in 1\nconst -1\nmul r1 r2\nadd r1 r3\n"}  # x + (-1) x

# inputs whose queries cannot be certified: exit 3, never a traceback
INDETERMINATE_INPUTS = {
    "reconstruct-adaptive-zero-program": (ZERO_SLP, ["reconstruct", "--slp", "zero.slp", "--adaptive"]),
    "vertex-adaptive-zero-program": (
        ZERO_SLP,
        ["vertex", "--backend", "eval", "--slp", "zero.slp", "--adaptive", "--w", "1"],
    ),
}


def _write_files(tmp_path, files) -> None:
    for file_name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / file_name).write_bytes(content)
        else:
            (tmp_path / file_name).write_text(content)


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2(name, capsys, tmp_path, monkeypatch):
    files, args = BAD_INPUTS[name]
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args, capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("name", sorted(name for name in BAD_INPUTS if name.endswith("-csv")))
def test_csv_is_refused_before_any_work(name, capsys, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, attr in ((ev, "support_estimate"), (ev, "vertex_query"), (pt, "convex_hull"), (pt, "from_json")):
        monkeypatch.setattr(module, attr, no_work)
    test_bad_input_exits_2(name, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", range(10))
def test_reconstruct_and_its_oracle_draw_from_different_generators(seed, capsys, monkeypatch):
    # the bounds oracle draws nothing before the reconstruction starts, so its
    # generator is still in its seeded state there
    seen = []

    def stop(oracle, n, config):
        seen.append((oracle.rng.getstate(), random.Random(config.seed).getstate()))
        raise rc.OracleIndeterminate("stopped")

    monkeypatch.setattr(rc, "reconstruct", stop)
    code, _, _ = run_cli(DISC_RECONSTRUCT + ["--seed", str(seed)], capsys)
    assert code == 3
    ((oracle_state, reconstruct_state),) = seen
    assert oracle_state != reconstruct_state


@pytest.mark.parametrize("name", sorted(INDETERMINATE_INPUTS))
def test_uncertifiable_input_exits_3(name, capsys, tmp_path, monkeypatch):
    files, args = INDETERMINATE_INPUTS[name]
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(args, capsys)
    assert code == 3 and err.startswith("indeterminate:")


def test_stretch_overflow_is_an_indeterminate_reconstruct_query(capsys):
    # delta = 400 puts the certified stretch of most query directions beyond
    # a double; those queries are indeterminate and the rest still finish
    code, out, err = run_cli(DISC_RECONSTRUCT + ["--delta", "400", "--lambda", "2"], capsys)
    assert code in (0, 3)
    if code == 0:
        assert json.loads(out)["polytope"]["vertices"] == [[0, 2, 0], [1, 0, 1]]
    else:
        assert err.startswith("indeterminate:") or "incomplete" in err


class TestReconstruct:
    def test_f1_adaptive(self, capsys):
        code, out, _ = run_cli(
            [
                "reconstruct",
                "--sparse",
                str(FIXTURES / "f1.poly"),
                "--backend",
                "eval",
                "--adaptive",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["polytope"]["vertices"]) == 5
        assert len(payload["polytope"]["facets"]) == 6
        assert payload["report"]["complete"]

    def test_constant_polynomial_gives_point(self, capsys, tmp_path):
        const = tmp_path / "c.poly"
        const.write_text("7 : 0 0\n")
        code, out, _ = run_cli(
            ["reconstruct", "--sparse", str(const), "--backend", "eval", "--adaptive"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["polytope"]["vertices"] == [[0, 0]]

    def test_determinism_byte_identical(self, capsys):
        args = [
            "reconstruct",
            "--sparse",
            str(FIXTURES / "disc.poly"),
            "--backend",
            "eval",
            "--adaptive",
            "--seed",
            "12",
        ]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0 and out1 == out2

    # sha256 of the JSON this run prints: the five vertices of the bipyramid,
    # its equalities in Hermite normal form, complete after 28 queries, 4 of
    # them indeterminate (the seed phase ends once the support values certify
    # the three equalities)
    def test_f1_adaptive_bytes_are_pinned(self, capsys):
        args = ["reconstruct", "--sparse", str(FIXTURES / "f1.poly"), "--adaptive", "--seed", "12"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3543f1f4dc944b781e5b7a0ddc9865ebbfae98fda61dec735540793bbb95a667"
        )

    def test_witness_bytes_are_pinned(self, capsys):
        config = str(FIXTURES / "quad_witness.json")
        args = ["reconstruct", "--backend", "witness", "--witness-config", config, "--seed", "3"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3885da1191b287de2657042d781a786ea1006bc7d6570a0b6f0c81748ea6c2a6"
        )

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--sparse", str(FIXTURES / "f1.poly"), "--adaptive", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_config_rejects_more_than_one_job(self):
        assert ReconstructConfig(jobs=1).jobs == 1
        with pytest.raises(ValueError, match="jobs"):
            ReconstructConfig(jobs=2)


class TestPolytopeCommands:
    def test_lattice_counts_bipyramid(self, capsys):
        code, out, _ = run_cli(
            ["lattice", "--polytope", str(FIXTURES / "bipyramid.json")], capsys
        )
        assert code == 0 and json.loads(out)["count"] == 5

    def test_hull_single_point(self, capsys, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("3 4\n")
        code, out, _ = run_cli(["hull", "--points", str(pts)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 0 and payload["vertices"] == [[3, 4]]

    def test_isom_delta_vs_bipyramid(self, capsys, tmp_path):
        code, out, _ = run_cli(
            [
                "reconstruct",
                "--sparse",
                str(FIXTURES / "f1.poly"),
                "--backend",
                "eval",
                "--adaptive",
            ],
            capsys,
        )
        delta_json = tmp_path / "delta.json"
        delta_json.write_text(json.dumps(json.loads(out)["polytope"]))
        code, out, _ = run_cli(
            ["isom", "--p", str(delta_json), "--q", str(FIXTURES / "bipyramid.json")],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["isomorphic"]
        matrix = [[int(x) for x in row] for row in payload["transform"]["matrix"]]
        translation = [int(x) for x in payload["transform"]["translation"]]
        delta = json.loads(delta_json.read_text())["vertices"]
        bipyramid = json.loads((FIXTURES / "bipyramid.json").read_text())["vertices"]
        images = {
            tuple(sum(a * x for a, x in zip(row, v)) + t for row, t in zip(matrix, translation))
            for v in delta
        }
        assert images == {tuple(v) for v in bipyramid}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["lattice", "--polytope", str(FIXTURES / "bipyramid.json"), "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["count"] == 5


class TestEntryPoint:
    def test_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "newtonpoly.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "reconstruct" in result.stdout
