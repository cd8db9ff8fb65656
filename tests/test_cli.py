import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotforge import assignment, cli, cmils_master, lp_core, oracles
from lotforge.cli import decimal_str, main
from lotforge.errors import RoundLimitError
from lotforge.instance import (CmilsInstance, gen_kc_gap, gen_random, load, load_schedule,
                               save, schedule_to_json_dict, to_json_dict)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_time_ms")
    return "\n".join(",".join(cell for i, cell in enumerate(line.split(","))
                              if i != drop) for line in lines)


class TestGenerate:
    def test_random_instance_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run_cli(capsys, "generate", "--seed", "4", "--T", "5",
                             "--N", "3", "--out", str(out))
        assert code == 0
        assert load(out) == gen_random(4, T=5, N=3)

    def test_kc_gap_family(self, tmp_path, capsys):
        out = tmp_path / "gap.json"
        code, _, _ = run_cli(capsys, "generate", "--family", "kc-gap",
                             "--R", "1000", "--out", str(out))
        assert code == 0
        assert load(out) == gen_kc_gap(Fraction(1000))

    def test_missing_params_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--out",
                               str(tmp_path / "x.json"))
        assert code == 1 and "needs" in err

    @pytest.mark.parametrize("T, N, message", [
        ("3", "0", "N must be a positive integer"),
        ("0", "3", "T must be a positive integer"),
        ("-2", "1", "T must be a positive integer"),
    ])
    def test_nonpositive_sizes_rejected(self, tmp_path, capsys, T, N, message):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "generate", "--T", T, "--N", N,
                                    "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestSolveVerify:
    def test_gap_solve_and_verify(self, tmp_path, capsys):
        inst_path = tmp_path / "gap.json"
        sched_path = tmp_path / "sched.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        code, out, _ = run_cli(capsys, "solve", "--in", str(inst_path),
                               "--out", str(sched_path))
        assert code == 0
        report = json.loads(out)
        assert report["alg_cost"]["total"]["exact"] == "1/1"
        assert report["certificate"]["ordering_bound_ok"] is True
        ratio = Fraction(report["ratio_vs_lp"]["exact"])
        assert ratio <= 10
        code, _, _ = run_cli(capsys, "verify", "--instance", str(inst_path),
                             "--schedule", str(sched_path))
        assert code == 0

    def test_kc_gap_r10_attains_the_factor(self, tmp_path, capsys):
        """The 10 x bound is tight: on kc-gap with R = 10 the LP opens the
        free period 1 and a tenth of period 2, but period 1 holds only 9 of
        the 10 units, so any schedule opens period 2 in full and the total
        is exactly 10 x the LP value."""
        inst_path = tmp_path / "gap10.json"
        assert run_cli(capsys, "generate", "--family", "kc-gap", "--R", "10",
                       "--out", str(inst_path))[0] == 0
        code, out, _ = run_cli(capsys, "solve", "--in", str(inst_path),
                               "--out", str(tmp_path / "s.json"))
        assert code == 0
        report = json.loads(out)
        assert report["lp_value"]["exact"] == "1/10"
        assert report["alg_cost"]["total"]["exact"] == "1/1"
        assert report["ratio_vs_lp"]["exact"] == "10/1"
        cert = report["certificate"]
        assert cert["ordering_bound_ok"] is True and cert["holding_bound_ok"] is True

    def test_single_period_total(self, tmp_path, capsys):
        inst_path = tmp_path / "one.json"
        save(gen_random(1, T=1, N=1), inst_path)
        code, out, _ = run_cli(capsys, "solve", "--in", str(inst_path),
                               "--out", str(tmp_path / "s.json"))
        assert code == 0
        report = json.loads(out)
        inst = gen_random(1, T=1, N=1)
        assert Fraction(report["alg_cost"]["total"]["exact"]) >= inst.K[0]

    def test_round_cap_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        code, _, err = run_cli(capsys, "solve", "--in", str(inst_path),
                               "--out", str(tmp_path / "s.json"),
                               "--max-rounds", "0")
        assert code == 2 and "round cap" in err

    def test_false_certificate_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cmils_master, "hcost", lambda inst, x: Fraction(-1))
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        code, out, err = run_cli(capsys, "solve", "--in", str(inst_path),
                                 "--out", str(tmp_path / "s.json"))
        assert code == 2 and out == ""
        assert "ratio certificate failed" in err

    def test_failed_placement_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(assignment, "solve_assignment", lambda inst, orders: None)
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        code, out, err = run_cli(capsys, "solve", "--in", str(inst_path),
                                 "--out", str(tmp_path / "s.json"))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("invariant failed: ")
        assert "placement flow" in err
        assert not (tmp_path / "s.json").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "solve", "--in",
                               str(tmp_path / "nope.json"),
                               "--out", str(tmp_path / "s.json"))
        assert code == 1 and "error" in err

    def test_deeply_nested_instance_is_one_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "solve", "--in", str(deep),
                                 "--out", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err == f"error: {deep}: JSON nested too deeply\n"

    @pytest.mark.parametrize("which", ["instance", "schedule"])
    def test_deeply_nested_verify_file_is_one_line(self, tmp_path, capsys, which):
        paths = {"instance": tmp_path / "i.json", "schedule": tmp_path / "s.json"}
        inst = gen_kc_gap(Fraction(1000))
        save(inst, paths["instance"])
        paths["schedule"].write_text(json.dumps(
            schedule_to_json_dict(cmils_master.run_pipeline(inst).schedule)))
        paths[which].write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "verify", "--instance", str(paths["instance"]),
                                 "--schedule", str(paths["schedule"]))
        assert (code, out) == (1, "")
        assert err == f"error: {paths[which]}: JSON nested too deeply\n"

    @pytest.mark.parametrize("field, value", [
        ("C", "7" * 4999 + "x"),
        ("C", ["7" * 4999 + "x"]),
        ("C", json.loads("[" * 900 + "]" * 900)),
        ("T", [1] * 5000),
    ], ids=["long-string", "long-string-entry", "nested-900", "long-list"])
    def test_oversized_bad_value_is_one_short_line(self, tmp_path, capsys, field, value):
        doc = to_json_dict(gen_random(1, T=3, N=2))
        doc[field] = value
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--in", str(path),
                                 "--out", str(tmp_path / "s.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 120

    @pytest.mark.parametrize("field, value", [
        ("orders", ["x" * 5000]),
        ("assignment", "x" * 5000),
        ("costs", {"ordering": json.loads("[" * 900 + "]" * 900),
                   "holding": "0/1", "total": "0/1"}),
        ("orders", {str(s): s for s in range(5000)}),
    ], ids=["long-string-entry", "long-string", "nested-900", "long-object"])
    def test_oversized_bad_schedule_value_is_one_short_line(self, tmp_path, capsys,
                                                            field, value):
        inst_path, sched_path = tmp_path / "i.json", tmp_path / "s.json"
        inst = gen_kc_gap(Fraction(1000))
        save(inst, inst_path)
        doc = schedule_to_json_dict(cmils_master.run_pipeline(inst).schedule)
        doc[field] = value
        sched_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--instance", str(inst_path),
                                 "--schedule", str(sched_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 120

    def test_tampered_quantity_detected(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        sched_path = tmp_path / "s.json"
        save(gen_random(6, T=4, N=3), inst_path)
        assert run_cli(capsys, "solve", "--in", str(inst_path),
                       "--out", str(sched_path))[0] == 0
        doc = json.loads(sched_path.read_text())
        doc["assignment"][0]["qty"] = "1000000/1"
        sched_path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--instance", str(inst_path),
                               "--schedule", str(sched_path))
        assert code == 3 and "mismatch" in err

    def test_tampered_cost_detected(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        sched_path = tmp_path / "s.json"
        save(gen_random(6, T=4, N=3), inst_path)
        run_cli(capsys, "solve", "--in", str(inst_path), "--out", str(sched_path))
        doc = json.loads(sched_path.read_text())
        doc["costs"]["total"] = "999/1"
        sched_path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--instance", str(inst_path),
                               "--schedule", str(sched_path))
        assert code == 3 and "mismatch" in err

    def test_trace_flag_writes_stderr(self, tmp_path, capsys):
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        code, _, err = run_cli(capsys, "solve", "--in", str(inst_path),
                               "--out", str(tmp_path / "s.json"), "--trace")
        assert code == 0
        assert "round=" in err
        assert re.search(r"^round=1 lp_value=\S+ pivots=\d+$", err, re.MULTILINE)


def _floats(obj, path="result"):
    """Paths to every float in obj, walking dataclasses and containers; the
    wall-clock fields, floats by design, are left out."""
    if isinstance(obj, float):
        yield path
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            if f.name not in ("elapsed_ms", "wall_time_ms"):
                yield from _floats(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _floats(key, f"{path} key {key!r}")
            yield from _floats(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for k, value in enumerate(obj):
            yield from _floats(value, f"{path}[{k}]")


@pytest.mark.parametrize("argv", [
    ("--seed", "3", "--T", "6", "--N", "4"),  # int data
    ("--family", "kc-gap", "--R", "7/3"),     # Fraction data
])
def test_solve_builds_no_float(tmp_path, capsys, argv):
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
    assert run_cli(capsys, "generate", *argv, "--out", str(inst_path))[0] == 0
    inst = load(inst_path)
    result = cmils_master.run_pipeline(inst)
    report = cli.build_report("inst", result, None)
    assert report.ratio_vs_lp is not None
    assert not list(_floats(result))
    assert not list(_floats(report))
    doc = report.to_json_dict()
    doc.pop("wall_time_ms")
    assert not list(_floats(doc))
    code, _, _ = run_cli(capsys, "solve", "--in", str(inst_path), "--out", str(sched_path))
    assert code == 0
    assert not list(_floats(load_schedule(sched_path)))


class TestBench:
    @pytest.mark.parametrize("T, N", [("0", "3"), ("4", "0")])
    def test_nonpositive_sizes_rejected(self, tmp_path, capsys, T, N):
        out = tmp_path / "bench.csv"
        code, stdout, err = run_cli(capsys, "bench", "--seeds", "1..2", "--T", T,
                                    "--N", N, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and "must be a positive integer" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_csv_shape_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, "bench", "--seeds", "1..3", "--T", "4",
                                "--N", "3")
        assert code == 0
        code, out2, _ = run_cli(capsys, "bench", "--seeds", "1..3", "--T", "4",
                                "--N", "3")
        assert code == 0
        assert strip_wall_time(out1) == strip_wall_time(out2)
        lines = out1.strip().splitlines()
        assert lines[0].startswith("instance_id,lp_value")
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "seed-1"

    def test_oracle_mode_ratios(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--seeds", "2..4", "--T", "5",
                               "--N", "3", "--oracle")
        assert code == 0
        header = out.strip().splitlines()[0].split(",")
        col = header.index("ratio_vs_opt")
        for line in out.strip().splitlines()[1:]:
            ratio = line.split(",")[col]
            assert ratio and Fraction(ratio) <= 10

    def test_oracle_cap_refused(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--seeds", "1..1", "--T", "15",
                               "--N", "2", "--oracle")
        assert code == 1 and "cap" in err

    def test_empty_seed_range(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--seeds", "5..4", "--T", "4",
                                 "--N", "2")
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "--seeds" in err

    def test_bad_seed_syntax(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--seeds", "abc", "--T", "4",
                               "--N", "2")
        assert code == 1 and "--seeds" in err

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(capsys, "bench", "--seeds", "1..1", "--T", "4",
                               "--N", "2", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("instance_id,")


class TestMisc:
    def test_decimal_rendering(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"
        assert decimal_str(Fraction(7, 1)) == "7"

    def test_usage_error_returns_one(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_parser_is_built_once_and_handlers_are_looked_up_per_call(
            self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        argv = ("solve", "--in", str(inst_path), "--out", str(tmp_path / "s.json"))
        assert run_cli(capsys, *argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.infile) or 7)
        assert run_cli(capsys, *argv)[0] == 7 and seen == [str(inst_path)]

    @pytest.mark.parametrize("command, rounds", [("solve", "-1"), ("solve", "-3")])
    def test_negative_max_rounds_rejected(self, tmp_path, capsys, command, rounds):
        inst_path = tmp_path / "gap.json"
        save(gen_kc_gap(Fraction(1000)), inst_path)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--in", str(inst_path),
                                    "--out", str(out), "--max-rounds", rounds)
        assert code == 1 and stdout == ""
        assert err == "error: --max-rounds must be a non-negative integer\n"
        assert not out.exists()


def _round_cap(inst, **kwargs):
    raise RoundLimitError("no rounding after 200 cut rounds", state="last state")


def _failure_argv(kind, tmp_path, monkeypatch):
    """The command line of one failure kind, with any monkeypatch it needs."""
    gap_path, sched_path = str(tmp_path / "gap.json"), str(tmp_path / "s.json")
    save(gen_kc_gap(Fraction(1000)), gap_path)
    solve = ["solve", "--in", gap_path, "--out", sched_path]
    bench = ["bench", "--seeds", "1..2", "--T", "4", "--N", "2"]
    if kind == "certificate":
        monkeypatch.setattr(cmils_master, "hcost", lambda inst, x: Fraction(-1))
    elif kind == "short-placement":  # the flow places one unit too few
        real = assignment.solve_assignment

        def short(inst, orders):
            holding, units = real(inst, orders)
            first = min(units)
            return holding, {**units, first: units[first] - 1}

        monkeypatch.setattr(assignment, "solve_assignment", short)
    elif kind == "bench-round-cap":
        monkeypatch.setattr(cmils_master, "run_pipeline", _round_cap)
    elif kind == "bench-10x":
        monkeypatch.setattr(oracles, "brute_force_cmils",
                            lambda inst: SimpleNamespace(optimum_cost=Fraction(1, 10 ** 6)))
    elif kind == "short-capacity":  # 1 + 4 due by period 2, 2 + 2 to hold it
        save(CmilsInstance(T=3, N=2, K=(1, 1, 1), C=(2, 2, 5), d=(1, 4), r=(1, 2),
                           h=((0,), (1, 0))), gap_path)
    elif kind == "infeasible-master":
        monkeypatch.setattr(lp_core, "solve_to_vertex", lambda lp, start=None, separate=None:
                            lp_core.LpSolution(status=lp_core.INFEASIBLE, values=None,
                                               objective_value=None))
    elif kind == "repeated-entry":
        assert main(solve) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["assignment"] *= 2
        (tmp_path / "s.json").write_text(json.dumps(doc))
        return ["verify", "--instance", gap_path, "--schedule", sched_path]
    return {
        "certificate": solve,
        "short-placement": solve,
        "short-capacity": solve,
        "infeasible-master": solve,
        "round-cap": [*solve, "--max-rounds", "0"],
        "bench-round-cap": bench,
        "bench-10x": [*bench, "--oracle"],
        "missing-file": ["solve", "--in", str(tmp_path / "nope.json"), "--out", sched_path],
        "generate-needs": ["generate", "--family", "kc-gap", "--out", gap_path],
        "bad-seeds": ["bench", "--seeds", "2..1", "--T", "4", "--N", "2"],
        "oracle-cap": ["bench", "--seeds", "1..1", "--T", "15", "--N", "2", "--oracle"],
    }[kind]


@pytest.mark.parametrize("kind, code, line", [
    ("certificate", 2, "invariant failed: ratio certificate failed: "),
    ("short-placement", 2, "invariant failed: infeasible schedule: item 1: assigned 999, "
                           "demand 1000"),
    ("short-capacity", 1, "error: infeasible instance: demand due by period 2 is 5, "
                          "above the capacity 4 of periods 1..2"),
    ("infeasible-master", 2, "invariant failed: master LP came back infeasible"),
    ("round-cap", 2, "round cap exceeded: no rounding after 0 cut rounds"),
    ("bench-round-cap", 2, "round cap exceeded: seed 1: no rounding after 200 cut rounds"),
    ("bench-10x", 2, "invariant failed: seed 1: cost exceeds 10x optimum"),
    ("missing-file", 1, "error: [Errno 2] No such file or directory: "),
    ("generate-needs", 1, "error: kc-gap needs --R"),
    ("bad-seeds", 1, "error: bad --seeds '2..1'; want a..b with a <= b"),
    ("oracle-cap", 1, "error: T=15 exceeds the oracle cap 14"),
    ("repeated-entry", 1, "error: assignment lists (s, i) = (2, 1) twice"),
])
def test_each_failure_kind_is_one_line_from_main(tmp_path, capsys, monkeypatch,
                                                 kind, code, line):
    """main turns every error into its exit code and one stderr line that
    starts with the prefix of the error's kind; a command's output is never
    half written."""
    argv = _failure_argv(kind, tmp_path, monkeypatch)
    capsys.readouterr()
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(line) and err.count("\n") == 1, err


def test_bench_round_cap_keeps_its_state(monkeypatch):
    monkeypatch.setattr(cmils_master, "run_pipeline", _round_cap)
    args = cli.build_parser().parse_args(["bench", "--seeds", "3..4", "--T", "4", "--N", "2"])
    with pytest.raises(RoundLimitError, match="^seed 3: no rounding") as info:
        cli.cmd_bench(args)
    assert info.value.state == "last state"


# ---------------------------------------------------------------------------
# malformed files: every outcome is an exit code and at most one stderr line

JUNK = (None, True, False, 0, -1, 1, 2, 7, 10 ** 30, 1.5, "", "1", "3", "-2",
        "x", "1/0", "2/3", [], [1], ["1/1"], [[2]], {}, {"d": "1"})


def _paths(doc, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _paths(doc[key], prefix + (key,))
    elif isinstance(doc, list):
        for j, value in enumerate(doc):
            yield from _paths(value, prefix + (j,))


def _mutate(doc, data):
    """Replace, delete or extend one to three locations of doc with junk."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        kind = data.draw(st.sampled_from(("replace", "delete", "extend")))
        junk = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
        if not path:
            doc = junk if kind == "replace" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "extend" and isinstance(target, list):
            target.append(junk)
        elif kind == "extend" and isinstance(target, dict):
            target["extra"] = junk
        else:
            parent[path[-1]] = junk
    return doc


def _base_instance(data):
    if data.draw(st.booleans()):
        return gen_kc_gap(data.draw(st.sampled_from((2, 10, 1000))))
    return gen_random(data.draw(st.integers(0, 20)), T=data.draw(st.integers(1, 3)),
                      N=data.draw(st.integers(1, 3)))


def _run_cli_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_instance_never_escapes_solve(data):
    doc = _mutate(to_json_dict(_base_instance(data)), data)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "i.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = _run_cli_quietly(["solve", "--in", inst_path,
                                         "--out", os.path.join(tmp, "s.json")])
    assert code in (0, 1, 2) and len(err.splitlines()) <= 1, (code, err)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_files_never_escape_verify(data):
    inst = _base_instance(data)
    inst_doc = to_json_dict(inst)
    sched_doc = schedule_to_json_dict(cmils_master.run_pipeline(inst).schedule)
    which = data.draw(st.sampled_from(("instance", "schedule", "both")))
    if which != "schedule":
        inst_doc = _mutate(inst_doc, data)
    if which != "instance":
        sched_doc = _mutate(sched_doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("i.json", inst_doc), ("s.json", sched_doc)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        code, _, err = _run_cli_quietly(["verify", "--instance", paths[0],
                                         "--schedule", paths[1]])
    assert code in (0, 1, 3) and len(err.splitlines()) <= 1, (code, err)


def _ranges(lo, hi):
    """A range (a, b) that gen_random accepts: lo <= a <= b <= hi and b >= 1."""
    return st.integers(lo, hi).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(max(a, 1), hi)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), T=st.integers(1, 8), N=st.integers(1, 5),
       capacity_range=_ranges(1, 30), cost_range=_ranges(0, 40),
       demand_range=_ranges(1, 15),
       slack_factor=st.fractions(1, Fraction(3, 2), max_denominator=8))
def test_generator_space_solves_within_ten_times_and_verifies(
        seed, T, N, capacity_range, cost_range, demand_range, slack_factor):
    """Over gen_random's own parameters: the certificate holds, the total is
    within 10x of the brute-force optimum, and solve then verify, both
    through main, exit 0."""
    inst = gen_random(seed, T=T, N=N, capacity_range=capacity_range,
                      cost_range=cost_range, demand_range=demand_range,
                      slack_factor=slack_factor)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sched_path = os.path.join(tmp, "i.json"), os.path.join(tmp, "s.json")
        save(inst, inst_path)
        code, out, err = _run_cli_quietly(["solve", "--in", inst_path, "--out", sched_path])
        assert (code, err) == (0, ""), err
        report = json.loads(out)
        assert report["certificate"]["ordering_bound_ok"] is True
        assert report["certificate"]["holding_bound_ok"] is True
        total = load_schedule(sched_path).total_cost
        assert Fraction(report["alg_cost"]["total"]["exact"]) == total
        assert total <= 10 * oracles.brute_force_cmils(inst).optimum_cost
        assert _run_cli_quietly(["verify", "--instance", inst_path,
                                 "--schedule", sched_path]) == (0, "", "")
