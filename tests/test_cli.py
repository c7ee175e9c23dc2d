"""Text formats and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from morseflow import build_complex, emit_scx, parse_off, parse_scx, validate
from morseflow.cli import run
from morseflow.errors import (
    MissingValue,
    MorseConditionViolated,
    ParseError,
    PreconditionViolated,
)

P3_SCX = "0 : 0\n1 : 3\n2 : 1\n0 1 : 2\n1 2 : 4\n"


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.scx"
    path.write_text(P3_SCX, encoding="utf-8")
    return str(path)


class TestScx:
    def test_parse_bare_simplices(self):
        complex, f = parse_scx("0 1\n1 2\n")
        assert len(complex) == 5
        assert f is None

    def test_parse_with_values(self):
        complex, f = parse_scx(P3_SCX)
        assert f is not None
        assert f((1, 2)) == 4.0

    def test_comments_and_blanks(self):
        complex, _ = parse_scx("# a comment\n\n0 1  # trailing\n")
        assert len(complex) == 3

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ParseError):
            parse_scx("0 0 : 1\n")

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ParseError):
            parse_scx("0 1\n1 0\n")

    def test_partial_values_rejected(self):
        with pytest.raises(ParseError):
            parse_scx("0 : 1\n1\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, token, tmp_path, capsys):
        with pytest.raises(ParseError) as info:
            parse_scx(f"0 : 0\n1 : {token}\n0 1 : 2\n")
        assert info.value.line == 2
        with pytest.raises(PreconditionViolated):
            validate(build_complex([(0,)]), {(0,): float(token)})
        path = tmp_path / "bad.scx"
        path.write_text(f"0 : {token}\n", encoding="utf-8")
        assert run(["critical", "--in", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["kind"], error["line"]) == ("ParseError", 1)

    def test_values_must_cover_the_closure(self):
        with pytest.raises(MissingValue):
            parse_scx("0 1 : 1\n")

    def test_morse_violation_propagates(self):
        text = "0 : 0\n1 : 0\n2 : 0\n0 1 : 0\n0 2 : 0\n1 2 : 0\n0 1 2 : 0\n"
        with pytest.raises(MorseConditionViolated):
            parse_scx(text)

    def test_round_trip_exact(self):
        complex, f = parse_scx(P3_SCX)
        text = emit_scx(complex, f)
        complex2, f2 = parse_scx(text)
        assert complex2 == complex
        assert f2 == f
        assert emit_scx(complex2, f2) == text

    def test_round_trip_without_values(self):
        complex, _ = parse_scx("0 1\n1 2\n")
        complex2, f2 = parse_scx(emit_scx(complex))
        assert complex2 == complex and f2 is None


class TestOff:
    def test_single_triangle(self):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        assert len(parse_off(text)) == 7

    def test_tetrahedron_boundary(self):
        text = (
            "OFF\n4 4 0\n"
            "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
            "3 0 1 2\n3 0 1 3\n3 0 2 3\n3 1 2 3\n"
        )
        assert len(parse_off(text)) == 14

    def test_square_is_fan_triangulated(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        complex = parse_off(text)
        assert len(complex.cells_of_dim(2)) == 2

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_off("OFF\n3 1 0\n0 0 0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_off("PLY\n")

    def test_vertices_only(self):
        complex = parse_off("OFF\n2 0 0\n0 0 0\n1 1 1\n")
        assert len(complex) == 2


class TestCli:
    def _json(self, capsys, argv):
        code = run(argv)
        out = capsys.readouterr().out
        return code, out

    def test_critical(self, p3_file, capsys):
        code, out = self._json(capsys, ["critical", "--in", p3_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["critical"] == [[0], [2], [1, 2]]
        assert payload["values"] == [0, 1, 4]

    def test_mountain_pass(self, p3_file, capsys):
        code, out = self._json(
            capsys, ["mountain-pass", "--in", p3_file, "--min1", "2", "--min0", "0"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == 4
        assert payload["edge"] == [1, 2]
        assert payload["witness"]["edges"] == [[1, 2]]

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scx"
        bad.write_text(
            "0 : 0\n1 : 0\n2 : 0\n0 1 : 0\n0 2 : 0\n1 2 : 0\n0 1 2 : 0\n", encoding="utf-8"
        )
        code, out = self._json(capsys, ["validate", "--in", str(bad)])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["kind"] == "MorseConditionViolated"
        assert payload["error"]["violations"]

    def test_usage_error_exit_code(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run(["random", "--in", "x.scx"]) == 2  # missing --seed
        assert run(["levels", "--in", "x.scx", "--level", "nan"]) == 2
        for command in ("collapse", "lscat", "minmax-check"):
            assert run([command, "--in", "x.scx", "--max-enum", "-1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_input(self, kind, tmp_path, capsys):
        path = tmp_path / "in.scx"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"0 : \xff\n")
        code, out = self._json(capsys, ["critical", "--in", str(path)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "UnreadableInput"
        assert str(path) in error["message"]

    def test_homology_without_values(self, tmp_path, capsys):
        path = tmp_path / "circle.scx"
        path.write_text("0 1\n0 2\n1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["homology", "--in", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["euler"] == 0
        assert payload["betti"] == [1, 1]

    def test_value_commands_require_values(self, tmp_path, capsys):
        path = tmp_path / "bare.scx"
        path.write_text("0 1\n", encoding="utf-8")
        code, out = self._json(capsys, ["critical", "--in", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "MissingValue"

    def test_off_input(self, tmp_path, capsys):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["homology", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["betti"] == [1, 0, 0]

    def test_random_is_seeded_and_valid(self, tmp_path, capsys):
        path = tmp_path / "k.scx"
        path.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
        code, out1 = self._json(capsys, ["random", "--in", str(path), "--seed", "9"])
        assert code == 0
        code, out2 = self._json(capsys, ["random", "--in", str(path), "--seed", "9"])
        assert out1 == out2
        scx = json.loads(out1)["scx"]
        complex, f = parse_scx(scx)
        assert f is not None and f.is_injective()

    def test_levels_with_window(self, p3_file, capsys):
        code, out = self._json(
            capsys, ["levels", "--in", p3_file, "--level", "1", "--to", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sublevel"] == [[0], [2]]
        assert payload["collapse"]["pairs"] == [[[1], [0, 1]]]

    def test_collapse_command(self, tmp_path, capsys):
        path = tmp_path / "tri.scx"
        path.write_text("0 1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["collapse", "--in", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["collapsible"] is True
        assert len(payload["steps"]) == 3

    def test_collapse_command_on_a_long_path(self, tmp_path, capsys):
        path = tmp_path / "path.scx"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1200)), encoding="utf-8")
        code, out = self._json(capsys, ["collapse", "--in", str(path), "--max-enum", "100000"])
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex"] == [0]
        assert len(payload["steps"]) == 1200

    def test_too_large_error_carries_size_and_bound(self, tmp_path, capsys):
        path = tmp_path / "tri.scx"
        path.write_text("0 1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["collapse", "--in", str(path), "--max-enum", "3"])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "TooLargeForEnumeration"
        assert (error["size"], error["bound"]) == (7, 3)

    def test_lscat(self, tmp_path, capsys):
        path = tmp_path / "circle.scx"
        path.write_text(
            "0 : 0\n1 : 2\n0 1 : 1\n2 : 4\n0 2 : 3\n1 2 : 5\n", encoding="utf-8"
        )
        code, out = self._json(capsys, ["lscat", "--in", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["dgcat"] == 1
        assert payload["values"] == [[1, 0.0], [2, 5.0]]
        assert payload["boundHolds"] is True

    def test_minmax_check_paths(self, p3_file, capsys):
        code, out = self._json(
            capsys,
            ["minmax-check", "--in", p3_file, "--min1", "2", "--min0", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["instance"] == "paths"

    def test_export_dot(self, p3_file, capsys):
        code = run(["export-dot", "--in", p3_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph gradient {")
        assert '"1" -> "0 1";' in out
        assert out.count("peripheries=2") == 3

    def test_gradient_and_flow_commands(self, p3_file, capsys):
        code, out = self._json(capsys, ["gradient", "--in", p3_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"] == [[[1], [0, 1]]]
        assert payload["hasClosedPath"] is False
        code, out = self._json(capsys, ["flow", "--in", p3_file])
        assert code == 0
        assert json.loads(out)["check"] == "ok"

    def test_determinism_across_processes_and_hash_seeds(self, p3_file):
        """Hash-order must never leak into output; compare fresh interpreters."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        outputs = []
        for hash_seed in ("1", "17"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "morseflow.cli", "lscat", "--in", p3_file],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_determinism_all_commands(self, p3_file, capsys):
        commands = [
            ["validate", "--in", p3_file],
            ["critical", "--in", p3_file],
            ["gradient", "--in", p3_file],
            ["flow", "--in", p3_file],
            ["levels", "--in", p3_file, "--level", "2.5"],
            ["collapse", "--in", p3_file],
            ["homology", "--in", p3_file],
            ["mountain-pass", "--in", p3_file, "--min1", "2", "--min0", "0"],
            ["lscat", "--in", p3_file],
            ["minmax-check", "--in", p3_file],
            ["export-dot", "--in", p3_file],
        ]
        for argv in commands:
            assert run(argv) == 0
            first = capsys.readouterr().out
            assert run(argv) == 0
            second = capsys.readouterr().out
            assert first == second
