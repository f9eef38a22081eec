import json
import math
import pathlib
import signal

import numpy as np
import pytest

from spherecover import io
from spherecover.cli import EXIT_FAIL, MAX_Q, main as cli_main
from spherecover.generators import generate_disk_covering, GenerationStuck
from spherecover.normalize import normalize
from spherecover.surface import functionals, geometric_walk, validate

from conftest import f4_double_cover, isomorphic, polygonal_family_membership

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "seed1"


def test_round_trip_fixture(tmp_path, f4):
    path = tmp_path / "f4.json"
    io.save_surface(f4, path, metadata={"seed": 0})
    loaded = io.load_surface(path)
    assert validate(loaded) == []
    assert isomorphic(loaded, f4)
    for v in f4.base.live_vertices():
        assert np.allclose(loaded.base.vertices[v], f4.base.vertices[v], atol=1e-15)
    r1, r2 = functionals(f4), functionals(loaded)
    assert r1.area == r2.area and r1.boundary_length == r2.boundary_length


def test_round_trip_random_batch(tmp_path):
    done = 0
    seed = 0
    while done < 40 and seed < 120:
        seed += 1
        try:
            s = generate_disk_covering(("io", seed))
        except GenerationStuck:
            continue
        path = tmp_path / ("s%d.json" % seed)
        io.save_surface(s, path)
        loaded = io.load_surface(path)
        assert isomorphic(loaded, s)
        # serialization is deterministic: byte-identical on rewrite
        path2 = tmp_path / ("t%d.json" % seed)
        io.save_surface(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        done += 1
    assert done >= 40


def test_malformed_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(io.SurfaceFileError):
        io.load_surface(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(io.SurfaceFileError):
        io.load_surface(wrong)


@pytest.mark.parametrize("command, payload", [
    ("verify", "{not json"),
    ("verify", '{"steps": []}'),
    ("surgery", "{bad"),
    ("surgery", "[1, 2]"),
    ("surgery", '"sides"'),
    ("surgery", '{"sides": [[0, 2]]}'),
    ("surgery", '{"run_a": [[0, 2]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": 7}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [0, 2]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[0, 2, 1]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[0, "2"]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[0, 2.0]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[true, 2]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[999, 0]]}'),
    ("surgery", '{"run_a": [[0, 2]], "run_b": [[-1, 2]]}'),
])
def test_cli_bad_input_is_parse_error(tmp_path, capsys, command, payload):
    surf = tmp_path / "f4.json"
    io.save_surface(f4_double_cover(), surf)
    if command == "verify":
        trace = tmp_path / "trace.json"
        trace.write_text(payload)
        argv = ["verify", str(surf), "--against", str(surf), "--trace", str(trace)]
    else:
        argv = ["surgery", str(surf), "--op", "sew", "--params", payload,
                "--out", str(tmp_path / "out.json")]
    assert cli_main(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert "parse error:" in err and len(err.splitlines()) == 1
    if command == "surgery":
        assert err.startswith("parse error: --params: ")


def test_cli_surgery_reports_typed_errors_only(tmp_path, capsys, monkeypatch):
    surf = tmp_path / "f4.json"
    io.save_surface(f4_double_cover(), surf)
    argv = ["surgery", str(surf), "--op", "sew", "--params",
            json.dumps({"run_a": [[0, 2]], "run_b": [[0, 3]]}),
            "--out", str(tmp_path / "out.json")]
    # well-formed sides whose images do not match: the library's typed error
    assert cli_main(argv) == EXIT_FAIL
    assert capsys.readouterr().err.startswith("surgery failed: ")

    def broken(*_):
        raise KeyError("a programming error")

    monkeypatch.setattr("spherecover.cli.sew", broken)
    with pytest.raises(KeyError):
        cli_main(argv)


@pytest.mark.parametrize("field, value", [
    ("vertex", ["1.0", "0.0"]),
    ("vertex", ["nan", "0", "0"]),
    ("fans", None),
    ("document", [1, 2]),
    ("copies", "x"),
    ("copies", 999),
    ("pairing", [[0, 1]]),
    ("fan", [999]),
    ("special", "999"),
    ("label", "duplicate"),
    ("label", 5),
    ("marker", 999),
    ("area", "nan"),
    ("length", "nan"),
    ("length", "-5.0"),
    ("kind", "foo"),
    ("vertex", ["1.3e154", "1.3e154", "0"]),
    ("vertex", ["1e-200", "0", "0"]),
    ("vertex", ["0.6", "0.6", "0.6"]),
    # a fan that lists its first dart twice loops a re-tracing loader, and one
    # that lists its last dart twice passes its trace
    ("repeat", 0),
    ("repeat", -1),
    # the darts of the last edge written as -2 and -1, in the fans and the
    # face cycles: as list indices both wrap onto that edge
    ("negative", None),
    # an edge end equal to its vertex id but not an int
    ("end", float),
    ("end", bool),
    # a dart written as a float: in a face cycle it equals its int as a key
    # and passed the check, then every command failed on an xor
    ("dart", "cycle"),
    ("dart", "fan"),
    # float() of a string vertex walks its characters; float(True) is 1.0
    ("vertex", "100"),
    ("vertex", [True, 0, 0]),
    # a traversal string loaded and was written back as a list of its characters
    ("traversal", "xyz"),
    ("traversal", [0, 1.0]),
])
def test_cli_malformed_surface_is_parse_error(tmp_path, capsys, field, value):
    doc = io.surface_to_dict(f4_double_cover())
    if field == "fans":
        del doc["base"]["fans"]
    elif field == "document":
        doc = value
    elif field == "copies":
        doc["copies"][0] = value
    elif field == "pairing":
        doc["pairing"][0] = value
    elif field == "fan":
        doc["base"]["fans"][0] = value
    elif field == "repeat":
        fan = doc["base"]["fans"][0]
        fan.append(fan[value])
    elif field == "negative":
        base = doc["base"]
        last = 2 * len(base["edges"]) - 2
        assert base["edges"][-1] is not None
        relabel = {last: -2, last + 1: -1}
        base["fans"] = [[relabel.get(d, d) for d in fan] for fan in base["fans"]]
        for f in base["faces"]:
            if f:
                f["cycle"] = [relabel.get(d, d) for d in f["cycle"]]
    elif field == "special":
        doc["base"]["specials"][value] = "a9"
    elif field == "label":
        specials = doc["base"]["specials"]
        first, second = list(specials)[:2]
        specials[first] = specials[second] if value == "duplicate" else value
    elif field == "marker":
        doc["base"]["markers"].append(value)
    elif field == "area":
        next(f for f in doc["base"]["faces"] if f)["area"] = value
    elif field == "length":
        next(e for e in doc["base"]["edges"] if e)["length"] = value
    elif field == "end":
        edge = next(e for e in doc["base"]["edges"] if e and e["a"] == 1)
        edge["a"] = value(edge["a"])
    elif field == "dart":
        cycle = next(f for f in doc["base"]["faces"] if f)["cycle"]
        darts = cycle if value == "cycle" else doc["base"]["fans"][0]
        darts[0] = float(darts[0])
    elif field == "kind":
        next(e for e in doc["base"]["edges"] if e and e["kind"] == "curve")["kind"] = value
    elif field == "traversal":
        doc["base"]["traversal"] = value
    else:
        doc["base"]["vertices"][0] = value
    surf = tmp_path / "bad.json"
    surf.write_text(json.dumps(doc))
    out = tmp_path / "out.json"

    def hung(*_):
        raise TimeoutError("the load did not end")

    # a hang fails the test instead of stalling the suite
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        for argv in (["normalize", str(surf), "--out", str(out)],
                     ["inspect", str(surf)], ["verify", str(surf)]):
            assert cli_main(argv) == EXIT_FAIL
            err = capsys.readouterr().err
            assert err.startswith("parse error:") and err.count("\n") == 1, err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not out.exists()


def test_cli_gen_inspect_verify(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert cli_main(["gen", "--seed", "3", "--out", str(out)]) == 0
    assert cli_main(["inspect", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["inspect", str(out), "--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert "H" in doc and "n_bar" in doc
    assert cli_main(["verify", str(out)]) == 0


def test_cli_gen_closed_and_verify(tmp_path):
    out = tmp_path / "closed.json"
    assert cli_main(["gen", "--closed-degree", "3", "--out", str(out)]) == 0
    assert cli_main(["verify", str(out)]) == 0


def test_cli_verify_against_closed_surface_fails_in_one_line(tmp_path, capsys):
    closed, disk = tmp_path / "closed.json", tmp_path / "disk.json"
    assert cli_main(["gen", "--closed-degree", "2", "--out", str(closed)]) == 0
    io.save_surface(f4_double_cover(), disk)
    for a, b in ((closed, disk), (disk, closed)):
        capsys.readouterr()
        assert cli_main(["verify", str(a), "--against", str(b)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "surfaces with boundary" in err


@pytest.mark.parametrize("args", [
    ["--q", "2"], ["--q", "three"], ["--closed-degree", "-1"], ["--max-sheets", "0"],
    ["--branch-budget", "-1"],
])
def test_cli_gen_out_of_range_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "gen.json"
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument %s:" % args[0] in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_refuses_q_above_its_bound(tmp_path, capsys):
    # a q past MAX_Q is refused as it is parsed, not after the generator's
    # 400 attempts; MAX_Q itself generates
    out = tmp_path / "gen.json"
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen", "--q", str(MAX_Q + 1), "--out", str(out)])
    assert exc.value.code == 2
    assert "must be at most %d, got %d" % (MAX_Q, MAX_Q + 1) in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["gen", "--q", str(MAX_Q), "--seed", "1", "--out", str(out)]) == 0
    assert len(io.load_surface(out).base.specials) == MAX_Q


def test_cli_gen_stuck_is_one_line(tmp_path, capsys):
    # valid arguments whose one generator attempt gets stuck
    out = tmp_path / "gen.json"
    assert cli_main(["gen", "--seed", "2", "--max-sheets", "1", "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("gen failed: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_trace_rotation_turns_the_walk_as_certify():
    # verify --trace rebuilds the composed rotation from the trace file; it
    # must turn the input walk as certify's rotation does, bit for bit
    rotated = 0
    for line in (CORPUS / "batch.jsonl").read_text().splitlines():
        s = io.surface_from_dict(json.loads(line))
        out, trace = normalize(s)
        if not trace.rotations:
            continue
        doc = json.loads(json.dumps(io.trace_to_dict(trace, True)))
        want = geometric_walk(s, trace.composed_rotation())
        assert geometric_walk(s, io.rotation_from_dict(doc["rotation"])) == want
        rotated += 1
    assert rotated == 14


def test_cli_normalize_and_certificate(tmp_path):
    src = tmp_path / "f4.json"
    io.save_surface(f4_double_cover(), src)
    out = tmp_path / "norm.json"
    trace = tmp_path / "trace.json"
    rc = cli_main(["normalize", str(src), "--out", str(out),
                   "--trace-out", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert doc["certificate_ok"]
    assert doc["iterations"] <= doc["iteration_bound"]
    # verify the output against the input using the stored rotation
    rc = cli_main(["verify", str(out), "--against", str(src),
                   "--trace", str(trace)])
    assert rc == 0


def test_cli_verify_refuses_a_trace_past_its_iteration_bound(tmp_path, capsys):
    src, out, trace = tmp_path / "f4.json", tmp_path / "norm.json", tmp_path / "trace.json"
    io.save_surface(f4_double_cover(), src)
    assert cli_main(["normalize", str(src), "--out", str(out), "--trace-out", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    argv = ["verify", str(out), "--against", str(src), "--trace", str(trace)]
    passed = ["better-than certificate: ok", "  H        ok", "  sum      ok",
              "  n_bar    ok", "  boundary ok", "all checks passed"]
    for iterations, rc in [(doc["iterations"], 0), (doc["iteration_bound"], 0),
                           (doc["iteration_bound"] + 1, EXIT_FAIL)]:
        trace.write_text(io.dumps(dict(doc, iterations=iterations)))
        capsys.readouterr()
        assert cli_main(argv) == rc
        got = capsys.readouterr()
        if rc == 0:
            assert (got.out.splitlines(), got.err) == (passed, "")
        else:
            assert got.out == ""
            assert got.err.splitlines() == ["trace %s: %d iterations exceed the bound %d"
                                            % (trace, iterations, doc["iteration_bound"])]


def test_cli_surgery_cut(tmp_path):
    s = f4_double_cover()
    side = next(x for x in s.pairing
                if s.base.kind(s.dart_of(x)) == "scaffold")
    src = tmp_path / "in.json"
    io.save_surface(s, src)
    out = tmp_path / "cut.json"
    rc = cli_main(["surgery", str(src), "--op", "cut_to_boundary",
                   "--params", json.dumps({"sides": [list(side)]}),
                   "--out", str(out)])
    assert rc in (0, 1)  # the chosen side may start at an interior sheet
    # pick a definitely legal side: bridge lift from the boundary junction
    sheets, corner_sheet = s.sheets()
    for cand in s.sides():
        if cand not in s.pairing:
            continue
        c, p = cand
        tail = sheets[corner_sheet[(c, p)]]
        head = sheets[corner_sheet[(c, (p + 1) % len(s.cycle_of(c)))]]
        if (not tail.interior) and head.interior:
            rc = cli_main(["surgery", str(src), "--op", "cut_to_boundary",
                           "--params", json.dumps({"sides": [list(cand)]}),
                           "--out", str(out)])
            assert rc == 0
            loaded = io.load_surface(out)
            assert functionals(loaded).topology == "disk"
            return
    pytest.skip("no cuttable side")


def test_cli_malformed_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli_main(["inspect", str(bad)]) == 1


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli_main(["surgery"])  # missing required arguments
    assert exc.value.code == 2


def test_cli_net(tmp_path):
    src = tmp_path / "f4.json"
    io.save_surface(f4_double_cover(), src)
    dot = tmp_path / "net.dot"
    assert cli_main(["net", str(src), "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph gluing {") and "boundary" in text


@pytest.mark.parametrize("side, field", [(0, 1), (1, 0)])
def test_cli_refuses_a_pairing_side_off_the_surface(tmp_path, capsys, side, field):
    # a side past its face cycle (net raised an IndexError before) and a
    # side on copy 99, which does not exist (net wrote its edge, exit 0);
    # surgery and verify --against read such a file unchecked before, and
    # ended in an IndexError or a surgery error about the broken gluing
    good, surf = tmp_path / "good.json", tmp_path / "bad.json"
    io.save_surface(f4_double_cover(), good)
    doc = io.surface_to_dict(f4_double_cover())
    doc["pairing"][0][side][field] = 99
    surf.write_text(json.dumps(doc))
    surgery = ["surgery", str(surf), "--op", "cut_to_boundary", "--params",
               json.dumps({"sides": [[0, 0]]}), "--out", str(tmp_path / "out.json")]
    for argv in (["net", str(surf)], ["inspect", str(surf)], ["verify", str(surf)], surgery,
                 ["verify", str(good), "--against", str(surf)]):
        capsys.readouterr()
        assert cli_main(argv) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("invalid surface: ") and len(err.splitlines()) == 1, argv


def test_cli_verify_has_no_tol_option(tmp_path, capsys):
    # H is compared within the one tolerance the pipeline uses
    src = tmp_path / "f4.json"
    io.save_surface(f4_double_cover(), src)
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", str(src), "--against", str(src), "--tol", "inf"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol inf" in capsys.readouterr().err


def test_cli_verify_refuses_a_trace_without_against(tmp_path, capsys):
    # the trace holds the rotation of a better-than certificate, which only
    # --against asks for; alone it was ignored, even when malformed
    src, trace = tmp_path / "f4.json", tmp_path / "trace.json"
    io.save_surface(f4_double_cover(), src)
    trace.write_text("{oops")
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", str(src), "--trace", str(trace)])
    assert exc.value.code == 2
    assert "--trace needs --against" in capsys.readouterr().err


def test_generator_deterministic_bytes(tmp_path):
    from spherecover.generators import generate_disk_covering
    s1 = generate_disk_covering(("det", 5), special_face_cap=1, with_marker=True)
    s2 = generate_disk_covering(("det", 5), special_face_cap=1, with_marker=True)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.save_surface(s1, p1)
    io.save_surface(s2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_polygonal_membership_report():
    s = f4_double_cover()
    rep = polygonal_family_membership(s, length_cap=4 * math.pi + 1e-6,
                                      nbar_cap=0, segment_cap=6)
    assert rep["member"]
    assert rep["segments"] <= 6
    tight = polygonal_family_membership(s, length_cap=1.0, nbar_cap=0, segment_cap=6)
    assert not tight["member"] and not tight["length_ok"]
