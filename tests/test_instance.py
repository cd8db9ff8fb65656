import dataclasses
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import x_val
from lotforge.assignment import solve_assignment
from lotforge.cmils_master import run_pipeline
from lotforge.errors import InstanceFormatError, InvariantError
from lotforge.instance import (CmilsInstance, FractionalSolution, OrderSchedule,
                               check_feasible, cost, from_json_dict, gen_kc_gap,
                               gen_random, hcost, load, make_schedule, parse_rat,
                               prefix_feasible, save, save_schedule,
                               schedule_from_json_dict, schedule_to_json_dict,
                               to_json_dict, validate)
from lotforge.oracles import brute_force_cmils

F = Fraction


def tiny(T=1, N=1, K=(7,), C=(5,), d=(3,), r=(1,), h=((0,),)):
    return CmilsInstance(T=T, N=N,
                         K=tuple(F(v) for v in K), C=tuple(F(v) for v in C),
                         d=tuple(F(v) for v in d), r=r,
                         h=tuple(tuple(F(v) for v in row) for row in h))


class TestValidate:
    def test_gap_instance_is_valid(self):
        assert validate(gen_kc_gap(F(1000))) == []

    def test_increasing_holding_table(self):
        inst = tiny(T=2, K=(7, 7), C=(5, 5), r=(2,), h=((0, 1),))
        bad = validate(inst)
        assert len(bad) == 2  # not non-increasing, and terminal entry nonzero
        assert any("non-increasing" in msg for msg in bad)

    def test_nonzero_terminal_holding(self):
        inst = tiny(h=((3,),))
        bad = validate(inst)
        assert len(bad) == 1 and "end at 0" in bad[0]

    def test_zero_capacity_flagged(self):
        bad = validate(tiny(C=(0,)))
        assert any("C[1]" in msg for msg in bad)

    def test_float_cost_rejected(self):
        inst = dataclasses.replace(tiny(), K=(7.0,))
        assert validate(inst) == ["K[1] = 7.0 is not an int or a Fraction"]
        with pytest.raises(ValueError, match=r"^invalid instance: K\[1\] = 7.0 is not"):
            run_pipeline(inst)

    def test_float_deadline_rejected(self):
        inst = dataclasses.replace(tiny(), r=(1.0,))
        assert validate(inst) == ["r[1] = 1.0 is not an int"]
        with pytest.raises(ValueError, match=r"^invalid instance: r\[1\] = 1.0 is not an int$"):
            run_pipeline(inst)

    def test_bool_entries_rejected(self):
        inst = dataclasses.replace(tiny(), C=(True,), r=(True,), h=((False,),))
        assert validate(inst) == ["C[1] = True is not an int or a Fraction",
                                  "r[1] = True is not an int",
                                  "h[1][1] = False is not an int or a Fraction"]


class TestFeasibility:
    def test_exact_fit(self):
        inst = tiny(d=(5,))
        sched = make_schedule(inst, {1}, {(1, 1): F(5)})
        ok, bad = check_feasible(inst, sched)
        assert ok and not bad

    def test_capacity_violation(self):
        inst = tiny(d=(5,), C=(4,))
        sched = OrderSchedule(orders=frozenset({1}), assignment={(1, 1): F(5)},
                              ordering_cost=F(0), holding_cost=F(0), total_cost=F(0))
        ok, bad = check_feasible(inst, sched)
        assert not ok
        assert any("capacity" in msg for msg in bad)

    def test_deadline_violation(self):
        inst = tiny(T=2, K=(7, 7), C=(5, 5))
        sched = OrderSchedule(orders=frozenset({2}), assignment={(2, 1): F(3)},
                              ordering_cost=F(0), holding_cost=F(0), total_cost=F(0))
        ok, bad = check_feasible(inst, sched)
        assert not ok
        assert any("deadline" in msg for msg in bad)


class TestCost:
    def test_single_period(self):
        inst = tiny()
        sched = make_schedule(inst, {1}, {(1, 1): F(3)})
        assert cost(inst, sched) == (F(7), F(0), F(7))

    def test_gap_embed_ordering_cost(self):
        inst = gen_kc_gap(F(1000))
        sched = make_schedule(inst, {1, 2}, {(1, 1): F(999), (2, 1): F(1)})
        ordering, holding, total = cost(inst, sched)
        assert ordering == 1 and holding == 0 and total == 1

    def test_infeasible_schedule_rejected(self):
        # a solver's schedule that breaks capacity is a broken invariant
        inst = tiny(d=(5,), C=(4,))
        with pytest.raises(InvariantError,
                           match=r"^infeasible schedule: period 1: load 5 exceeds capacity 4$"):
            make_schedule(inst, {1}, {(1, 1): F(5)})

    def test_seed42_matches_naive_recomputation(self):
        inst = gen_random(42, T=6, N=4)
        placed = solve_assignment(inst, inst.periods())
        assert placed is not None
        sched = make_schedule(inst, set(inst.periods()), placed[1])
        ordering = F(0)
        for s in sched.orders:
            ordering += inst.K[s - 1]
        holding = F(0)
        for (s, i), qty in sched.assignment.items():
            holding += qty * inst.h[i - 1][s - 1]
        assert cost(inst, sched) == (ordering, holding, ordering + holding)
        assert sched.total_cost == sched.ordering_cost + sched.holding_cost


class TestHcost:
    def test_mass_at_deadline_is_free(self):
        inst = gen_random(9, T=5, N=3)
        x = {(inst.deadline(i), i): F(1) for i in inst.items()}
        assert hcost(inst, x) == 0

    def test_half_half(self):
        inst = tiny(T=2, K=(1, 1), C=(5, 5), d=(2,), r=(2,), h=((3, 0),))
        x = {(1, 1): F(1, 2), (2, 1): F(1, 2)}
        assert hcost(inst, x) == 3  # 2 * (1/2) * 3

    def test_random_matches_double_loop(self):
        import random
        rng = random.Random(7)
        inst = gen_random(7, T=6, N=4)
        x = {}
        for i in inst.items():
            left = F(1)
            for s in range(1, inst.deadline(i)):
                take = F(rng.randint(0, 3), 10)
                take = min(take, left)
                if take:
                    x[(s, i)] = take
                left -= take
            if left:
                x[(inst.deadline(i), i)] = left
        naive = F(0)
        for i in inst.items():
            for s in range(1, inst.deadline(i) + 1):
                naive += inst.demand(i) * x.get((s, i), F(0)) * inst.hold(i, s)
        assert hcost(inst, x) == naive


class TestGenerators:
    def test_gen_random_valid_and_deterministic(self):
        a = gen_random(1, T=6, N=4, slack_factor=F(2))
        b = gen_random(1, T=6, N=4, slack_factor=F(2))
        assert validate(a) == []
        assert a == b

    def test_gen_random_feasible_by_oracle(self):
        inst = gen_random(3, T=8, N=6)
        result = brute_force_cmils(inst)
        ok, bad = check_feasible(inst, result.witness)
        assert ok, bad

    def test_gen_random_prefix_slack(self):
        for seed in range(20):
            inst = gen_random(seed, T=5, N=5)
            assert validate(inst) == []
            assert prefix_feasible(inst)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_random(1, T=3, N=2, demand_range=(5, 2))
        with pytest.raises(ValueError):
            gen_random(1, T=3, N=2, slack_factor=F(1, 2))
        with pytest.raises(ValueError, match="^cost_range must not go below 0$"):
            gen_random(1, T=3, N=2, cost_range=(-5, 3))
        assert validate(gen_random(1, T=3, N=2, cost_range=(0, 3))) == []  # a zero low end

    def test_gap_fields(self):
        inst = gen_kc_gap(F(1000))
        assert (inst.T, inst.N) == (2, 1)
        assert inst.C == (F(999), F(1000))
        assert inst.K == (F(0), F(1))
        assert inst.d == (F(1000),) and inst.r == (2,)
        assert all(v == 0 for row in inst.h for v in row)

    def test_gap_optimum_r1000(self):
        assert brute_force_cmils(gen_kc_gap(F(1000))).optimum_cost == 1

    def test_gap_optimum_r2_by_enumeration(self):
        inst = gen_kc_gap(F(2))
        best = None
        for mask in range(4):
            orders = [s for s in (1, 2) if mask >> (s - 1) & 1]
            placed = solve_assignment(inst, orders)
            if placed is None:
                continue
            total = sum((inst.K[s - 1] for s in orders), F(0)) + placed[0]
            best = total if best is None else min(best, total)
        assert best == 1
        assert brute_force_cmils(inst).optimum_cost == 1

    def test_gap_requires_r_at_least_2(self):
        with pytest.raises(ValueError):
            gen_kc_gap(F(3, 2))

    def test_gap_takes_an_exact_r_only(self):
        # A float is its binary expansion: 2.1 is 4728779608739021/2251799813685248.
        for R in (2.1, 1000.0, True, Decimal("2.1"), "1000"):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                gen_kc_gap(R)
        assert gen_kc_gap(1000) == gen_kc_gap(F(1000))
        assert gen_kc_gap(F(21, 10)).d == (F(21, 10),)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        inst = gen_random(1, T=6, N=4)
        path = tmp_path / "inst.json"
        save(inst, path)
        assert load(path) == inst

    def test_saved_bytes_are_what_json_dump_writes(self, tmp_path):
        inst = gen_kc_gap(F(7, 2))
        sched = run_pipeline(inst).schedule
        for write, to_doc, obj in ((save, to_json_dict, inst),
                                   (save_schedule, schedule_to_json_dict, sched)):
            path, ref = tmp_path / "new.json", tmp_path / "ref.json"
            write(obj, path)
            with open(ref, "w", encoding="utf-8") as fh:
                json.dump(to_doc(obj), fh, indent=2, sort_keys=True)
                fh.write("\n")
            assert path.read_bytes() == ref.read_bytes()

    def test_round_trip_many_seeds(self):
        for seed in range(10):
            inst = gen_random(seed, T=4, N=3)
            assert from_json_dict(to_json_dict(inst)) == inst

    def test_missing_field_names_it(self):
        doc = to_json_dict(gen_random(1, T=3, N=2))
        del doc["C"]
        with pytest.raises(InstanceFormatError, match="'C'"):
            from_json_dict(doc)

    def test_rational_parsing(self):
        assert parse_rat("7/3") == F(7, 3)
        assert parse_rat("5") == F(5)
        with pytest.raises(InstanceFormatError):
            parse_rat("x/y")

    @pytest.mark.parametrize("field,value,match", [
        ("T", True, "instance.T must be an integer"),
        ("N", 2.0, "instance.N must be an integer"),
        ("K", "12", "instance.K must be a list"),
        ("items", {"d": "1/1"}, "instance.items must be a list"),
    ])
    def test_wrong_json_types_rejected(self, field, value, match):
        doc = to_json_dict(gen_random(1, T=3, N=2))
        doc[field] = value
        with pytest.raises(InstanceFormatError, match=match):
            from_json_dict(doc)

    def test_non_object_item_rejected(self):
        doc = to_json_dict(gen_random(1, T=3, N=2))
        doc["items"][1] = 5
        with pytest.raises(InstanceFormatError, match="items\\[2\\] must be a JSON object"):
            from_json_dict(doc)
        doc["items"][1] = {"d": "1/1", "r": False, "h": ["0/1"]}
        with pytest.raises(InstanceFormatError, match="items\\[2\\].r"):
            from_json_dict(doc)

    def test_bool_is_not_a_rational(self):
        with pytest.raises(InstanceFormatError):
            parse_rat(True)

    @pytest.mark.parametrize("text", [
        "7/3", "6/1", "0/1", "-7/3", "-6/2", "-0/1", "2/4", "10/5", "007/003",
        "5", "-5", " 7/3", "7/3 ", "+7/3", "1_000/3", "1.5", "1e3", "3 / 4",
        "1/0", "-1/0", "--1/2", "-+1/2", "3/-4", "/3", "3/", "1/2/3", "", "x/y",
        "\u0663/\u0664", "\uff11/2", "\u00b2/3", "1/\u00b2",
    ])
    def test_parse_rat_reads_strings_as_fraction_does(self, text):
        """The same value as Fraction(text), or the same rejection, and an
        int exactly when the value is whole; the canonical "p/q" is read
        without Fraction."""
        try:
            want = F(text)
        except ValueError:
            with pytest.raises(InstanceFormatError) as err:
                parse_rat(text)
            assert str(err.value) == f"bad rational {text!r}"
            return
        except ZeroDivisionError:
            with pytest.raises(InstanceFormatError) as err:
                parse_rat(text)
            assert str(err.value) == f"bad rational {text!r}: zero denominator"
            return
        got = parse_rat(text)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else F)

    def test_json_ints_stay_ints(self):
        assert type(parse_rat(12)) is int and parse_rat(12) == 12
        doc = to_json_dict(gen_random(1, T=3, N=2))
        doc["K"] = [4, "9/3", "5/2"]
        inst = from_json_dict(doc)
        assert inst.K == (4, 3, F(5, 2))
        assert [type(v) for v in inst.K] == [int, int, F]

    @pytest.mark.parametrize("patch,match", [
        ({"orders": 3}, "schedule.orders must be a list"),
        ({"orders": [1, "2"]}, "orders must hold integers"),
        ({"assignment": [{"s": "1", "i": 1, "qty": "1/1"}]}, "entry.s must be an integer"),
        ({"assignment": [{"s": 1, "i": True, "qty": "1/1"}]}, "entry.i must be an integer"),
        ({"costs": []}, "schedule costs must be a JSON object"),
        ({"orders": [1, 1]}, r"^schedule.orders lists period 1 twice$"),
        ({"assignment": [{"s": 1, "i": 1, "qty": "3/1"}] * 2},
         r"^assignment lists \(s, i\) = \(1, 1\) twice$"),
    ])
    def test_schedule_json_types_rejected(self, patch, match):
        doc = {"orders": [1], "assignment": [{"s": 1, "i": 1, "qty": "3/1"}],
               "costs": {"ordering": "7/1", "holding": "0/1", "total": "7/1"}}
        schedule_from_json_dict(doc)  # the unpatched document loads
        doc.update(patch)
        with pytest.raises(InstanceFormatError, match=match):
            schedule_from_json_dict(doc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError, match="line"):
            load(path)


def test_fractional_solution_helpers():
    sol = FractionalSolution(x={(1, 1): F(1, 3), (2, 1): F(2, 3)}, y=(F(1), F(0)))
    assert x_val(sol, 3, 1) == 0
    assert x_val(sol, 2, 1) == F(2, 3)
