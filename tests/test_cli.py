"""End-to-end tests for the command-line interface: exit codes, file
contracts and determinism."""

import json
from pathlib import Path

import pytest

from gaitrm import __version__, cli
from gaitrm.cli import build_parser, load_policy, main
from gaitrm.guards import LabelSet, Prop
from gaitrm.machine import Gait, build_gait_rm, machine_to_document, transition_table
from helpers import deepest_trot_document, nested_guard

MACHINES_DIR = Path(__file__).resolve().parent.parent / "machines"

TINY_TRAIN = ["--total-steps", "2000", "--eval-every", "1000"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path: Path):
    lines = [
        line for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestValidate:
    def test_builtin_trot_file_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate", str(MACHINES_DIR / "trot.json"))
        assert code == 0
        assert "deterministic: yes" in out
        assert "total: yes" in out

    def test_overlapping_guards_exit_2_and_report(self, capsys, tmp_path):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"].append(dict(doc["transitions"][0]))
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "ambiguity" in out
        assert "{FL,BR}" in out

    def test_missing_file_exit_1_with_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run(capsys, "validate", str(missing))
        assert code == 1
        assert "nope.json" in err

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["true", "float", "string", "two"])
    def test_version_other_than_the_int_1_exit_1(self, capsys, tmp_path, version):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["version"] = version
        path = tmp_path / "versioned.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert f"unsupported version {version!r}" in err

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "b, message",
        [("1e400", "finite"), ("NaN", "finite"), ("-Infinity", "finite"),
         ("1" + "0" * 400, "too large")],
        ids=["overflow", "nan", "minus_infinity", "huge_int"],
    )
    def test_non_finite_bonus_exit_1_without_report(self, capsys, tmp_path, b, message):
        text = (MACHINES_DIR / "trot.json").read_text()
        path = tmp_path / "bonus.json"
        path.write_text(text.replace('"b": 10000.0', f'"b": {b}', 1))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "transitions[0]: 'b'" in err and message in err

    def test_guards_at_the_depth_limit_are_valid(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(deepest_trot_document()))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "valid: yes" in out


class TestTrain:
    def test_campaign_writes_expected_files(self, capsys, tmp_path):
        out = tmp_path / "campaign"
        code, stdout, _ = run(
            capsys, "train", "--gait", "trot", "--wrapper", "cross_product",
            "--seeds", "2", "--out", str(out), *TINY_TRAIN,
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        for seed in (0, 1):
            assert (out / f"curve_seed{seed}.csv").exists()
            assert (out / f"policy_seed{seed}.csv").exists()
        assert (out / "curve_aggregate.csv").exists()

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gait"] == "trot"
        assert manifest["wrapper"] == "cross_product"
        assert manifest["seeds"] == [0, 1]
        assert manifest["learner"]["total_steps"] == 2000
        assert manifest["env"]["episode_length"] == 100

        header, rows = read_rows(out / "curve_seed0.csv")
        assert header == ["step", "mean_return", "mean_pose_transitions", "mean_distance"]
        assert [r[0] for r in rows] == ["1000", "2000"]

        header, rows = read_rows(out / "curve_aggregate.csv")
        assert header[0] == "step"
        assert len(rows) == 2

    def test_explicit_seed_list(self, capsys, tmp_path):
        out = tmp_path / "c"
        code, *_ = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "3,7", "--out", str(out), *TINY_TRAIN,
        )
        assert code == 0
        assert (out / "curve_seed3.csv").exists()
        assert (out / "curve_seed7.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [3, 7]

    def test_cross_product_without_gait_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "train", "--wrapper", "cross_product",
            "--seeds", "1", "--out", str(tmp_path / "x"), *TINY_TRAIN,
        )
        assert code == 2
        assert "--gait" in err
        assert not (tmp_path / "x").exists()

    def test_no_gait_without_gait_is_allowed(self, capsys, tmp_path):
        out = tmp_path / "ng"
        code, *_ = run(
            capsys, "train", "--wrapper", "no_gait",
            "--seeds", "1", "--out", str(out), *TINY_TRAIN,
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["gait"] is None

    def test_same_invocation_twice_is_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "det"
        argv = [
            "train", "--gait", "pace", "--wrapper", "naive",
            "--seeds", "2", "--out", str(out), *TINY_TRAIN,
        ]
        assert main(list(argv)) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert main(list(argv)) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        capsys.readouterr()
        assert first == second

    def test_config_file_overrides(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "env": {"episode_length": 20},
            "learner": {"total_steps": 500, "eval_every": 500, "alpha": 0.2},
        }))
        out = tmp_path / "cfg"
        code, *_ = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(out), "--config", str(config),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["env"]["episode_length"] == 20
        assert manifest["learner"]["alpha"] == 0.2

    def test_unknown_config_key_is_semantic_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learner": {"warp_speed": 9}}))
        code, _, err = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(tmp_path / "x"), "--config", str(config),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc, field",
        [({"env": {"episode_length": 2.5}}, "episode_length"),
         ({"env": {"stumble_terminates": "no"}}, "stumble_terminates"),
         ({"env": {"clearance": float("nan")}}, "clearance"),
         ({"reward": {"w_e": float("nan")}}, "energy weight"),
         ({"reward": {"bonus_b": True}}, "bonus_b"),
         ({"reward": {"w_e": False}}, "w_e")],
    )
    def test_bad_config_value_is_semantic_error(self, capsys, tmp_path, doc, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "x"
        code, _, err = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(out), "--config", str(config), *TINY_TRAIN,
        )
        assert code == 2
        assert field in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("section, field", [("env", "clearance"), ("reward", "bonus_b")])
    def test_number_too_large_for_a_float_is_semantic_error(
        self, capsys, tmp_path, section, field
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {field: 10**400}}))
        out = tmp_path / "x"
        code, _, err = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(out), "--config", str(config), *TINY_TRAIN,
        )
        assert code == 2
        assert "bad configuration" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "seeds, message", [("0,0", "more than once"), (",", "names no seed")]
    )
    def test_bad_seed_list_is_semantic_error(self, capsys, tmp_path, seeds, message):
        out = tmp_path / "x"
        code, _, err = run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", seeds, "--out", str(out), *TINY_TRAIN,
        )
        assert code == 2
        assert message in err
        assert not (out / "manifest.json").exists()


POLICY_HEADER = "key," + ",".join(f"q{a}" for a in range(16))


class TestEval:
    def test_reference_policy_metrics(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--policy", "reference:trot", "--gait", "trot",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "episodes,mean_return,mean_pose_transitions,mean_distance"
        fields = lines[1].split(",")
        assert fields[0] == "10"
        assert float(fields[2]) == 99.0

    def test_trained_policy_round_trips_through_file(self, capsys, tmp_path):
        out = tmp_path / "run"
        run(
            capsys, "train", "--gait", "trot", "--wrapper", "cross_product",
            "--seeds", "1", "--out", str(out),
            "--total-steps", "6000", "--eval-every", "3000",
        )
        code, stdout, _ = run(
            capsys, "eval", "--policy", str(out / "policy_seed0.csv"),
            "--wrapper", "cross_product", "--gait", "trot",
        )
        assert code == 0
        transitions = float(stdout.strip().splitlines()[1].split(",")[2])
        assert transitions >= 90.0

    def test_policy_keyspace_mismatch_is_semantic_error(self, capsys, tmp_path):
        policy = tmp_path / "policy.csv"
        header = "key," + ",".join(f"q{a}" for a in range(16))
        policy.write_text(header + "\n31," + ",".join(["0.0"] * 16) + "\n")
        code, _, err = run(
            capsys, "eval", "--policy", str(policy),
            "--wrapper", "naive", "--gait", "trot",
        )
        assert code == 2
        assert "key space" in err


class TestDiagram:
    def test_reference_trot_diagram(self, capsys, tmp_path):
        out = tmp_path / "diagram.csv"
        code, stdout, _ = run(
            capsys, "diagram", "--policy", "reference:trot", "--gait", "trot",
            "--steps", "10", "--out", str(out),
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == [
            "step", "fl_contact", "fr_contact", "bl_contact", "br_contact",
            "rm_state", "transition",
        ]
        assert len(rows) == 10
        # settle step: all feet down, no transition
        assert rows[0][1:5] == ["1", "1", "1", "1"]
        assert rows[0][6] == "0"
        # every later step flips the machine state
        assert all(r[6] == "1" for r in rows[1:])
        assert [r[5] for r in rows[1:5]] == ["q1", "q0", "q1", "q0"]

    def test_stand_still_policy_all_contacts_no_transitions(self, capsys, tmp_path):
        policy = tmp_path / "policy.csv"
        header = "key," + ",".join(f"q{a}" for a in range(16))
        policy.write_text(header + "\n0," + ",".join(["0.0"] * 16) + "\n")
        out = tmp_path / "diagram.csv"
        code, *_ = run(
            capsys, "diagram", "--policy", str(policy), "--gait", "trot",
            "--steps", "5", "--out", str(out),
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 5
        for row in rows:
            assert row[1:5] == ["1", "1", "1", "1"]
            assert row[6] == "0"

    def test_early_termination_flagged(self, capsys, tmp_path):
        policy = tmp_path / "policy.csv"
        header = "key," + ",".join(f"q{a}" for a in range(16))
        row = ["0.0"] * 16
        row[15] = "1.0"  # greedy action: lift all four feet, stumble
        policy.write_text(header + "\n0," + ",".join(row) + "\n")
        out = tmp_path / "diagram.csv"
        code, *_ = run(
            capsys, "diagram", "--policy", str(policy), "--gait", "trot",
            "--steps", "5", "--out", str(out),
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert "# terminated early after step 1" in out.read_text()

    def test_transition_flags_agree_with_replay(self, capsys, tmp_path):
        out = tmp_path / "diagram.csv"
        trajectory = tmp_path / "trajectory.csv"
        code, *_ = run(
            capsys, "diagram", "--policy", "reference:bound", "--gait", "bound",
            "--steps", "20", "--out", str(out), "--trajectory", str(trajectory),
        )
        assert code == 0
        d_header, d_rows = read_rows(out)
        t_header, t_rows = read_rows(trajectory)
        assert t_header == [
            "step", "action", "h_fl", "h_fr", "h_bl", "h_br",
            "l_fl", "l_fr", "l_bl", "l_br",
            "delta_x", "power", "reward", "rm_state", "terminated", "truncated",
        ]

        rm = build_gait_rm(Gait.BOUND)
        table = transition_table(rm)
        u = rm.initial
        for d_row, t_row in zip(d_rows, t_rows):
            bits = tuple(int(v) for v in t_row[6:10])
            code_bits = bits[0] | bits[1] << 1 | bits[2] << 2 | bits[3] << 3
            nxt, _ = table[(u.index, code_bits)]
            assert d_row[6] == ("1" if nxt != u else "0")
            assert d_row[5] == nxt.name
            u = nxt

    def test_longer_than_default_episode(self, capsys, tmp_path):
        out = tmp_path / "diagram.csv"
        code, *_ = run(
            capsys, "diagram", "--policy", "reference:trot", "--gait", "trot",
            "--steps", "150", "--out", str(out),
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) == 150


class TestCompare:
    def _campaign(self, capsys, tmp_path, wrapper):
        run(
            capsys, "train", "--gait", "trot", "--wrapper", wrapper,
            "--seeds", "2", "--out", str(tmp_path / wrapper), *TINY_TRAIN,
        )

    def test_table_rows_and_columns(self, capsys, tmp_path):
        self._campaign(capsys, tmp_path, "cross_product")
        self._campaign(capsys, tmp_path, "naive")
        code, out, _ = run(capsys, "compare", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("gait,wrapper,seeds,")
        assert len(lines) == 3
        assert (tmp_path / "compare.csv").exists()
        by_wrapper = {line.split(",")[1]: line for line in lines[1:]}
        assert set(by_wrapper) == {"cross_product", "naive"}
        for line in lines[1:]:
            assert line.endswith(",yes")

    def test_missing_seed_flagged_incomplete(self, capsys, tmp_path):
        self._campaign(capsys, tmp_path, "naive")
        (tmp_path / "naive" / "curve_seed1.csv").unlink()
        code, out, _ = run(capsys, "compare", str(tmp_path))
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.endswith(",no")
        assert row.split(",")[2] == "1"

    def test_empty_directory_is_semantic_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", str(tmp_path))
        assert code == 2
        assert "manifest" in err

    def test_missing_directory_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", str(tmp_path / "absent"))
        assert code == 1


class TestMalformedInputs:
    """Broken files exit 1 with a message naming the problem."""

    def _eval(self, capsys, policy):
        return run(
            capsys, "eval", "--policy", str(policy), "--wrapper", "naive", "--gait", "trot",
        )

    @pytest.mark.parametrize("rows, message", [
        (["0," + ",".join(["0.0"] * 15)], "16 fields, expected 17"),
        (["0," + ",".join(["nan"] * 16)], "non-finite"),
        (["0," + ",".join(["x"] * 16)], "could not convert"),
        (["0," + ",".join(["0.0"] * 16)] * 2, "appears twice"),
    ], ids=["short_row", "non_finite", "non_numeric", "duplicate_key"])
    def test_malformed_policy_is_io_error(self, capsys, tmp_path, rows, message):
        policy = tmp_path / "policy.csv"
        policy.write_text("\n".join([POLICY_HEADER, *rows]) + "\n")
        code, _, err = self._eval(capsys, policy)
        assert code == 1
        assert message in err

    def _campaign(self, capsys, tmp_path) -> Path:
        run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(tmp_path / "naive"), *TINY_TRAIN,
        )
        return tmp_path / "naive"

    def test_manifest_without_files_is_io_error(self, capsys, tmp_path):
        manifest_path = self._campaign(capsys, tmp_path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "compare", str(tmp_path))
        assert code == 1
        assert "files" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{]"], ids=["non_utf8", "malformed"])
    @pytest.mark.parametrize("command", ["validate", "eval", "train", "compare"])
    def test_undecodable_input_file_is_io_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "in" / ("manifest.json" if command == "compare" else "input")
        path.parent.mkdir()
        path.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "validate": ["validate", str(path)],
            "eval": ["eval", "--policy", str(path), "--wrapper", "naive", "--gait", "trot"],
            "train": ["train", "--config", str(path), "--gait", "trot", "--out", str(out)],
            "compare": ["compare", str(path.parent)],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "guard_not", "guard_parens", "guard_and_chain",
        "machine_json", "config_json", "manifest_json",
    ])
    def test_deep_nesting_is_io_error(self, capsys, tmp_path, case):
        deep_json = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "in" / ("manifest.json" if case == "manifest_json" else "input")
        path.parent.mkdir()
        if case.startswith("guard"):
            doc = machine_to_document(build_gait_rm(Gait.TROT))
            doc["transitions"][0]["guard"] = {
                "guard_not": nested_guard("!", 3_000),
                "guard_parens": nested_guard("()", 3_000),
                "guard_and_chain": nested_guard("&", 1_000),
            }[case]
            path.write_text(json.dumps(doc))
        else:
            path.write_text(deep_json)
        out = tmp_path / "out"
        argv = {
            "config_json": ["train", "--config", str(path), "--gait", "trot",
                            "--out", str(out)],
            "manifest_json": ["compare", str(path.parent)],
        }.get(case, ["validate", str(path)])
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:")
        assert ("bad guard" if case.startswith("guard") else "nested too deeply") in err
        assert not out.exists()

    @pytest.mark.parametrize("section, value, flags", [
        ("env", None, ["--episode-length", "5"]),
        ("learner", "x", ["--total-steps", "10"]),
        ("learner", [1], ["--eval-every", "5"]),
        ("reward", [1], []),
    ], ids=["env_null", "learner_string", "learner_list", "reward_list"])
    @pytest.mark.parametrize("command", ["train", "eval", "diagram"])
    def test_config_section_not_an_object_is_semantic_error(
        self, capsys, tmp_path, command, section, value, flags
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: value}))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--gait", "trot", "--out", str(out), *flags],
            # eval and diagram take no learner flags, but still read the section.
            "eval": ["eval", "--policy", "reference:trot", "--gait", "trot"],
            "diagram": ["diagram", "--policy", "reference:trot", "--gait", "trot",
                        "--out", str(out / "diagram.csv")],
        }[command]
        if command != "train" and section == "env":
            argv += flags
        code, stdout, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:")
        assert f"section {section!r} must be an object" in err
        assert not out.exists()

    def test_truncated_curve_row_is_io_error(self, capsys, tmp_path):
        curve = self._campaign(capsys, tmp_path) / "curve_seed0.csv"
        curve.write_text(curve.read_text().rstrip("\n").rsplit(",", 1)[0] + "\n")
        code, _, err = run(capsys, "compare", str(tmp_path))
        assert code == 1
        assert "curve_seed0.csv" in err


class TestPolicyIo:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "run"
        run(
            capsys, "train", "--gait", "trot", "--wrapper", "naive",
            "--seeds", "1", "--out", str(out), *TINY_TRAIN,
        )
        q = load_policy(out / "policy_seed0.csv")
        assert q
        for row in q.values():
            assert len(row) == 16


class TestParserReuse:
    """One parser serves every call in a process; no call sees another's
    flags, and the command run is the one on the module at call time."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_episodes_do_not_carry_over(self, capsys):
        flags = ["eval", "--policy", "reference:trot", "--gait", "trot"]
        code, out, _ = run(capsys, *flags, "--episodes", "3")
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "3"
        code, out, _ = run(capsys, *flags)
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "10"

    def test_trajectory_does_not_carry_over(self, capsys, tmp_path):
        flags = ["diagram", "--policy", "reference:trot", "--gait", "trot"]
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        code, *_ = run(capsys, *flags, "--out", str(first / "d.csv"),
                       "--trajectory", str(first / "t.csv"))
        assert code == 0
        assert (first / "t.csv").is_file()
        (first / "t.csv").unlink()
        code, *_ = run(capsys, *flags, "--out", str(second / "d.csv"))
        assert code == 0
        assert sorted(p.name for p in tmp_path.rglob("*.csv")) == ["d.csv", "d.csv"]

    def test_command_patched_after_the_first_call_runs(self, capsys, monkeypatch):
        trot = str(MACHINES_DIR / "trot.json")
        code, *_ = run(capsys, "validate", trot)
        assert code == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.file) or 7)
        code, out, _ = run(capsys, "validate", trot)
        assert code == 7
        assert seen == [trot]
        assert out == ""

    @pytest.mark.parametrize(
        "argv", [["eval", "--gait", "trot"], ["simulate"], ["diagram", "--steps", "x"]],
        ids=["missing_required", "unknown_command", "bad_int"],
    )
    def test_usage_error_exits_2_on_every_call(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: gaitrm" in capsys.readouterr().err

    def test_version_and_help_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"{__version__}\n"
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--help"])
            assert exc.value.code == 0
            assert "--episodes" in capsys.readouterr().out
