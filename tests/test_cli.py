"""Text formats and the command-line interface."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys

import pytest

from morseflow import (
    EdgePath,
    FlowOperator,
    Simplex,
    SimplicialComplex,
    build_complex,
    collapses_to,
    critical_cells,
    critical_values,
    dgcat,
    emit_scx,
    enumerate_paths,
    flow_path,
    ls_bound_check,
    ls_minmax,
    mountain_pass,
    parse_off,
    parse_scx,
    random_morse,
    validate,
)
from morseflow import cli, complexes, errors
from morseflow.cli import MAX_ENUM_CAP, run
from morseflow.errors import (
    MissingValue,
    MorseConditionViolated,
    ParseError,
    PreconditionViolated,
    ReassemblyFailure,
    SimplexNotInComplex,
)
from conftest import random_complex, random_instance, torus, two_hole_grid
from test_minmax import reference_flow_path

P3_SCX = "0 : 0\n1 : 3\n2 : 1\n0 1 : 2\n1 2 : 4\n"


# Neither of these collapses.  The circle has an even cell count, so parity
# refuses it; the circle with an isolated vertex has an odd one, so its "no"
# comes from a search.
CIRCLE_SCX = "0 1\n1 2\n0 2\n"
CIRCLE_AND_VERTEX_SCX = CIRCLE_SCX + "3\n"


def collapse_by_vertex(complex, f, max_enum):
    """The collapse command's answer by one search per vertex, in vertex
    order: the first vertex the complex collapses onto, if any."""
    for vertex in complex.vertices:
        seq = collapses_to(complex, SimplicialComplex([vertex]), f, max_enum)
        if seq is not None:
            steps = [[list(a), list(b)] for a, b in seq.pairs]
            return {"collapsible": True, "vertex": list(vertex), "steps": steps}
    return {"collapsible": False}


def long_well_scx(n: int) -> str:
    """A path on ``n`` vertices: minima at both ends, one critical edge in the middle.

    Values fall toward vertex 0 on the left half and toward vertex ``n - 1``
    on the right, so every other vertex pairs with its downhill edge.
    """
    mid = n // 2
    lines = [f"{mid - 1} {mid} : {2 * n}"]
    for i in range(mid):
        lines.append(f"{i} : {2 * i}")
        if i:
            lines.append(f"{i - 1} {i} : {2 * i - 1}")
    for j in range(mid, n):
        d = n - 1 - j
        lines.append(f"{j} : {2 * d + 0.5}")
        if j < n - 1:
            lines.append(f"{j} {j + 1} : {2 * d - 0.5}")
    return "\n".join(lines) + "\n"


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
        # Comments may hold any text, even what numbers may not.
        complex, f = parse_scx("# naïve_1 ٣\n0 : 0  # café\x1c\u2028\n1 : 1\n0 1 : 2 # x_y\n")
        assert len(complex) == 3 and f((0, 1)) == 2.0
        complex, _ = parse_scx("0\t1\r\n1 2\r\n")
        assert len(complex) == 5

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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1_2\n", 1),
            ("0 : 0\n1 : 1\n0 1 : 1_0.5\n", 3),
            ("\u0663\n", 1),
            ("0\n0\u00a01\n", 2),
            ("0 : 0\u20281 : 1\n0 1 : 2\n", 1),
            ("0\n0\x1f1\n", 2),
            ("0\r1\n", 1),
            ("0 1\r\n1\x0c\r\n", 2),
        ],
        ids=[
            "separator-in-id", "separator-in-value", "arabic-indic-digit", "no-break-space",
            "line-separator", "unit-separator", "lone-carriage-return", "form-feed",
        ],
    )
    def test_numbers_must_be_plain_ascii(self, text, line, tmp_path, capsys):
        # ``int`` and ``float`` read each of these, and ``str.splitlines`` and
        # ``str.split`` break at the control characters: as the edge (0, 12),
        # the value 10.5, the vertex 3, the edge (0, 1), a valued edge, the
        # edge (0, 1), two vertices and the vertex 1.
        with pytest.raises(ParseError) as info:
            parse_scx(text)
        assert info.value.line == line
        path = tmp_path / "bad.scx"
        path.write_text(text, encoding="utf-8")
        assert run(["homology", "--in", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["kind"], error["line"]) == ("ParseError", line)

    def test_values_must_cover_the_closure(self):
        with pytest.raises(MissingValue):
            parse_scx("0 1 : 1\n")

    def test_morse_violation_propagates(self):
        text = "0 : 0\n1 : 0\n2 : 0\n0 1 : 0\n0 2 : 0\n1 2 : 0\n0 1 2 : 0\n"
        with pytest.raises(MorseConditionViolated):
            parse_scx(text)

    def test_parse_computes_each_cells_faces_once(self, monkeypatch):
        # Counts calls, not time: one face closure per parse builds every
        # face tuple, each from the complex's own cells; only the faces no
        # line lists become new cells, each once; and valid lines never go
        # through the checked constructor or ``Simplex.faces``.
        complex = torus(5)
        tops = "".join(f"{' '.join(map(str, c))}\n" for c in complex.cells_of_dim(2))
        texts = [emit_scx(complex, random_morse(complex, 3)), emit_scx(complex), tops]
        closures: list = []
        made: list = []
        faces_calls: list = []
        checked_calls: list = []
        closure = complexes._face_closure
        trusted = complexes._trusted
        faces = Simplex.faces
        new = Simplex.__new__

        def counting_closure(cells):
            closures.append(out := closure(cells))
            return out

        def counting_trusted(vertices):
            made.append(tuple(vertices))
            return trusted(vertices)

        def counting_faces(self):
            faces_calls.append(self)
            return faces(self)

        def counting_new(cls, vertices):
            checked_calls.append(vertices)
            return new(cls, vertices)

        monkeypatch.setattr(complexes, "_face_closure", counting_closure)
        monkeypatch.setattr(complexes, "_trusted", counting_trusted)
        monkeypatch.setattr(Simplex, "faces", counting_faces)
        monkeypatch.setattr(Simplex, "__new__", counting_new)
        new_cells = [[], [], complex.cells_of_dim(0) + complex.cells_of_dim(1)]
        for text, unlisted in zip(texts, new_cells):
            closures.clear()
            made.clear()
            parsed, _ = parse_scx(text)
            assert parsed == complex
            assert len(closures) == 1 and closures[0][0] is parsed._faces
            assert sorted(made) == sorted(unlisted)
            own = {c: c for c in parsed}
            assert all(t is own[t] for fs in parsed._faces.values() for t in fs)
        assert faces_calls == []
        assert checked_calls == []

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

    def test_emit_names_a_cell_without_value(self):
        _, f = parse_scx(P3_SCX)
        with pytest.raises(SimplexNotInComplex, match=r"Simplex\(3,\) has no value"):
            emit_scx(build_complex([(0, 3)]), f)


class TestOff:
    def test_single_triangle(self):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        assert len(parse_off(text)) == 7
        # Comments may hold any text, even what numbers may not.
        assert len(parse_off(text.replace("\n", " # naïve_1 ٣\x1c\u2028\n"))) == 7
        assert len(parse_off(text.replace("\n", "\r\n").replace(" ", "\t"))) == 7

    def test_refusals(self):
        triangle = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
        for text, reason in [
            ("OFF\n0 0 0\n", "no vertices"),
            (triangle + "2 0 1\n", "face with 2 vertices is not a polygon"),
            (triangle + "3 0 1 3\n", "vertex index 3 out of range"),
            (triangle + "3 -1 1 2\n", "vertex index -1 out of range"),
        ]:
            with pytest.raises(ParseError) as info:
                parse_off(text)
            assert (info.value.line, info.value.reason, str(info.value)) == (None, reason, reason)

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

    @pytest.mark.parametrize(
        "counts", ["-1 1 0", "3 -1 0", "3 1 -1"], ids=["vertices", "faces", "edges"]
    )
    def test_negative_count(self, counts):
        with pytest.raises(ParseError, match="negative count"):
            parse_off(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_tokens_after_the_last_face(self):
        for text in (
            "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 7\n",
        ):
            with pytest.raises(ParseError, match="after the last face"):
                parse_off(text)
        assert len(parse_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 # end\n")) == 7

    def test_face_listing_a_vertex_twice(self):
        points = "0 0 0\n1 0 0\n0 1 0\n1 1 0\n"
        for face in ("3 0 1 1", "4 0 1 2 1", "4 0 1 0 2", "5 0 1 2 3 0"):
            with pytest.raises(ParseError, match="listed twice"):
                parse_off(f"OFF\n4 1 0\n{points}{face}\n")

    @pytest.mark.parametrize(
        "text, token",
        [
            ("OFF\n\u0663 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "\u0663"),
            ("OFF\n3 1 0\n0 0 0\n1_0 0 0\n0 1 0\n3 0 1 2\n", "1_0"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 \u0662\n", "\u0662"),
            ("OFF\n3\u00a01 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "3\u00a01"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0\x1c1 2\n", "0\x1c1"),
            ("OFF\n3 1 0\n0 0 0\x0b\n1 0 0\n0 1 0\n3 0 1 2\n", "0\x0b"),
        ],
        ids=["count", "coordinate", "face-vertex", "no-break-space", "group-separator",
             "vertical-tab"],
    )
    def test_numbers_must_be_plain_ascii(self, text, token, tmp_path, capsys):
        with pytest.raises(ParseError, match=re.escape(f"got {token!r}")):
            parse_off(text)
        path = tmp_path / "bad.off"
        path.write_text(text, encoding="utf-8")
        assert run(["homology", "--in", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ParseError"


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
        # Above the cap the exhaustive commands stop at argument parsing, so
        # no input is read and no search starts.
        for command in ("lscat", "minmax-check"):
            for bound in (MAX_ENUM_CAP + 1, 100000):
                assert run([command, "--in", "x.scx", "--max-enum", str(bound)]) == 2
        assert capsys.readouterr().out == ""
        # The cap itself passes parsing, as does any bound for collapse: the
        # missing input then fails as a domain error.
        accepted = [("lscat", MAX_ENUM_CAP), ("minmax-check", MAX_ENUM_CAP), ("collapse", 100000)]
        for command, bound in accepted:
            assert run([command, "--in", "x.scx", "--max-enum", str(bound)]) == 1
            assert json.loads(capsys.readouterr().out)["error"]["kind"] == "UnreadableInput"

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
        """Each command that reads values refuses a bare file; the other three run."""
        path = tmp_path / "bare.scx"
        path.write_text("0 1\n", encoding="utf-8")
        bare = ["--in", str(path)]
        for argv in [
            ["validate"],
            ["critical"],
            ["gradient"],
            ["flow"],
            ["levels", "--level", "0"],
            ["mountain-pass", "--min1", "1", "--min0", "0"],
            ["lscat"],
            ["minmax-check"],
            ["export-dot"],
        ]:
            code, out = self._json(capsys, [*argv, *bare])
            assert code == 1, argv
            assert json.loads(out)["error"]["kind"] == "MissingValue", argv
        for argv in [["homology"], ["random", "--seed", "0"], ["collapse"]]:
            code, out = self._json(capsys, [*argv, *bare])
            assert (code, json.loads(out)["command"]) == (0, argv[0])

    def test_off_with_an_undeclared_face_is_a_json_error(self, tmp_path, capsys):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["homology", "--in", str(path)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "ParseError"

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

    def test_read_only_commands_build_no_coface_map_of_the_input(
        self, tmp_path, capsys, monkeypatch
    ):
        complex = torus(12)
        f = random_morse(complex, 7)
        path = tmp_path / "torus.scx"
        path.write_text(emit_scx(complex, f), encoding="utf-8")
        read = []
        cofaces = SimplicialComplex._cofaces

        def reading(k):
            # A derived complex reads its root's map, so record the root's size.
            read.append(len(k if k._root is None else k._root))
            return cofaces.fget(k)

        monkeypatch.setattr(SimplicialComplex, "_cofaces", property(reading))
        level = repr(f.sorted_distinct_values()[len(complex) // 2])
        for command in ("validate", "critical", "gradient", "export-dot", "levels"):
            argv = [command, "--in", str(path)] + (["--level", level] if command == "levels" else [])
            assert run(argv) == 0
        capsys.readouterr()
        assert len(complex) not in read

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

    def _collapse_matches_the_per_vertex_loop(self, tmp_path, capsys, text, max_enum):
        """Run ``collapse`` on the text, check its answer against
        ``collapse_by_vertex`` and return whether it is "yes"."""
        path = tmp_path / "in.scx"
        path.write_text(text, encoding="utf-8")
        argv = ["collapse", "--in", str(path), "--max-enum", str(max_enum)]
        code, out = self._json(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        expected = collapse_by_vertex(*parse_scx(text), max_enum)
        assert payload == {"schema": 1, "command": "collapse", **expected}
        return payload["collapsible"]

    @pytest.mark.parametrize(
        "text, cells",
        [(CIRCLE_SCX, 6), (CIRCLE_AND_VERTEX_SCX, 7), (emit_scx(two_hole_grid()), 31)],
        ids=["circle", "circle-and-vertex", "two-hole-grid"],
    )
    def test_collapse_command_says_no(self, tmp_path, capsys, text, cells):
        complex, _ = parse_scx(text)
        assert len(complex) == cells
        assert not self._collapse_matches_the_per_vertex_loop(tmp_path, capsys, text, cells)

    def test_collapse_command_matches_the_per_vertex_loop(self, tmp_path, capsys):
        check = self._collapse_matches_the_per_vertex_loop
        answers = []
        for seed in range(120):
            complex, f = random_instance(seed)
            for values in (None, f):
                answers.append(check(tmp_path, capsys, emit_scx(complex, values), 40))
        assert 0 < answers.count(False) < len(answers)

    def test_mountain_pass_on_a_long_path(self):
        _, f = parse_scx(long_well_scx(1200))
        result = mountain_pass(f, (1199,), (0,))
        assert result.edge == (599, 600)
        assert result.value == 2400.0
        # every vertex of the left half is in the basin of 0, so the
        # shortest path stops at 599, just over the ridge edge
        assert len(result.paths) == 600
        assert result.witness.edges[-1] == (599, 600)

    def test_flow_path_on_a_long_path(self):
        # The longest path of the 2 400-vertex well has 2 399 edges; the
        # flowed paths must match the reassembly that scans every unused edge.
        _, f = parse_scx(long_well_scx(2400))
        paths = enumerate_paths(f, f.field, (2399,), (0,))
        operator = FlowOperator(f)
        longest = paths[-1]
        assert len(longest.edges) == 2399
        for path in (paths[0], paths[len(paths) // 2], longest):
            assert flow_path(operator, path) == reference_flow_path(operator, path)
        # Dropping an inner edge leaves the image in two pieces.
        broken = EdgePath(longest.start, longest.edges[:1000] + longest.edges[1001:], longest.low)
        with pytest.raises(ReassemblyFailure) as info:
            reference_flow_path(operator, broken)
        with pytest.raises(ReassemblyFailure, match=re.escape(str(info.value))):
            flow_path(operator, broken)

    def test_mountain_pass_command_on_a_long_path(self, tmp_path, capsys):
        path = tmp_path / "well.scx"
        path.write_text(long_well_scx(1200), encoding="utf-8")
        argv = ["mountain-pass", "--in", str(path), "--min1", "1199", "--min0", "0"]
        code, out = self._json(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert (payload["c"], payload["edge"], payload["pathCount"]) == (2400.0, [599, 600], 600)

    @pytest.mark.parametrize("command", ["mountain-pass", "minmax-check"])
    def test_tied_minima_are_refused_in_both_orders(self, tmp_path, capsys, command):
        path = tmp_path / "tie.scx"
        path.write_text("0 : 0\n1 : 0\n0 1 : 1\n", encoding="utf-8")
        for high, low in (("1", "0"), ("0", "1")):
            argv = [command, "--in", str(path), "--min1", high, "--min0", low]
            code, out = self._json(capsys, argv)
            assert code == 1
            assert json.loads(out)["error"] == {
                "kind": "NotLocalMinima",
                "message": f"need two distinct critical vertices with f(({low},)) < f(({high},))",
            }

    def test_too_large_error_carries_size_and_bound(self, tmp_path, capsys):
        path = tmp_path / "tri.scx"
        path.write_text("0 1 2\n", encoding="utf-8")
        code, out = self._json(capsys, ["collapse", "--in", str(path), "--max-enum", "3"])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "TooLargeForEnumeration"
        assert (error["size"], error["bound"]) == (7, 3)

    def test_lscat(self, tmp_path, capsys, point, edge, p3, triangle, circle, two_triangles):
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
        # The command's category and bound equal the library's own calls.
        for complex in (point, edge, p3, triangle, circle, two_triangles):
            for seed in range(4):
                f = random_morse(complex, seed)
                path.write_text(emit_scx(complex, f), encoding="utf-8")
                code, out = self._json(capsys, ["lscat", "--in", str(path)])
                assert code == 0
                payload = json.loads(out)
                assert payload["dgcat"] == dgcat(complex).category
                assert payload["values"] == [[k, v] for k, v in ls_minmax(f)]
                assert payload["criticalCount"] == len(critical_cells(f))
                assert payload["boundHolds"] is ls_bound_check(f)

    def test_minmax_check_paths(self, p3_file, capsys):
        code, out = self._json(
            capsys,
            ["minmax-check", "--in", p3_file, "--min1", "2", "--min0", "0"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["instance"] == "paths"

    def test_minmax_check_with_one_minimum_is_refused(self, p3_file, capsys):
        for given in (["--min0", "0"], ["--min1", "2"]):
            code, out = self._json(capsys, ["minmax-check", "--in", p3_file, *given])
            assert code == 1
            assert json.loads(out)["error"] == {
                "kind": "PreconditionViolated",
                "message": "give both --min0 and --min1, or neither",
            }

    def test_minmax_check_on_values_further_apart_than_the_largest_float(
        self, tmp_path, capsys
    ):
        path = tmp_path / "far.scx"
        path.write_text("0 : -1e308\n1 : 1e308\n", encoding="utf-8")
        code, out = self._json(capsys, ["minmax-check", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["epsilon"] == 1e308

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

    def test_flow_command_checks_the_matrix_against_the_chain_route(
        self, p3_file, capsys, monkeypatch
    ):
        class Tampered(FlowOperator):
            def __init__(self, f):
                super().__init__(f)
                self._flow[Simplex((1,))] = {Simplex((2,)): 1}  # corrupt the chain route

        monkeypatch.setattr(cli, "FlowOperator", Tampered)
        code, out = self._json(capsys, ["flow", "--in", p3_file])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "PropertyViolation"
        assert "matrix/chain mismatch at (1,)" in error["message"]

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

    def test_one_parser_per_process(self, tmp_path, capsys, double_well):
        """Every command the parser declares, with a usage error, a domain
        error and ``export-dot --json`` between them, twice in one process:
        each call prints what its first call printed and what a fresh
        ``python -m morseflow.cli`` process prints, with the same exit code."""
        f = random_morse(torus(4), 3)
        torus_file = tmp_path / "torus.scx"
        torus_file.write_text(emit_scx(f.complex, f), encoding="utf-8")
        bare_file = tmp_path / "torus_bare.scx"
        bare_file.write_text(emit_scx(f.complex), encoding="utf-8")
        well_file = tmp_path / "two_triangles.scx"
        well_file.write_text(emit_scx(double_well.complex, double_well), encoding="utf-8")
        # A window [level, to] with no critical value in (level, to].
        values = f.sorted_distinct_values()
        critical = set(critical_values(f))
        level, to = next((a, b) for a, b in zip(values, values[1:]) if b not in critical)
        t, b, w = str(torus_file), str(bare_file), str(well_file)
        pass_args = ["--min1", "3", "--min0", "0"]
        commands = [
            ["validate", "--in", t],
            ["critical", "--in", t],
            ["gradient", "--in", t],
            ["flow", "--in", t],
            ["levels", "--in", t, "--level", repr(level), "--to", repr(to)],
            ["homology", "--in", b],
            ["random", "--in", b, "--seed", "7"],
            ["export-dot", "--in", t],
            ["mountain-pass", "--in", w, *pass_args],
            ["minmax-check", "--in", w, *pass_args],
            ["minmax-check", "--in", w],
            ["lscat", "--in", w],
            ["collapse", "--in", w],
        ]
        between = [
            ["levels", "--in", t, "--level", "nan"],  # usage error
            ["lscat", "--in", t],  # too large to enumerate
            ["export-dot", "--in", t, "--json"],
        ]
        parser = cli.build_parser()
        declared = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert {argv[0] for argv in commands} == set(declared.choices)
        sequence = commands[:5] + between + commands[5:]
        first: dict[tuple, tuple[int, str]] = {}
        for argv in sequence + sequence:
            result = (run(argv), capsys.readouterr().out)
            assert first.setdefault(tuple(argv), result) == result, argv
        assert [first[tuple(argv)][0] for argv in between] == [2, 1, 0]
        assert all(first[tuple(argv)][0] == 0 for argv in commands)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv, (code, out) in first.items():
            proc = subprocess.run(
                [sys.executable, "-m", "morseflow.cli", *argv], capture_output=True, env=env
            )
            assert (proc.returncode, proc.stdout) == (code, out.encode("utf-8")), argv


def contract_files(rng, count):
    """``(text, vertex ids)`` of ``.scx`` files of four kinds in turn: a
    ``random_morse`` function, a bare complex, random values (mostly not a
    Morse function) and a ``random_morse`` function with one malformed line.
    The ids are the function's critical vertices, for mountain passes, when
    it has two; otherwise all the complex's vertices."""
    files = []
    for i in range(count):
        complex = random_complex(rng, max_vertices=6, max_cell=3)
        ids = [c[0] for c in complex.vertices]
        kind = i % 4
        if kind == 1:
            files.append((emit_scx(complex), ids))
            continue
        if kind == 2:
            values = {c: rng.choice([0, 1, 2, 2.5, -1e308, 1e308]) for c in complex}
            text = "".join(f"{' '.join(map(str, c))} : {v!r}\n" for c, v in values.items())
            files.append((text, ids))
            continue
        f = random_morse(complex, rng.randrange(2**32))
        minima = [c[0] for c in critical_cells(f) if c.dim == 0]
        lines = emit_scx(complex, f).splitlines(keepends=True)
        if kind == 3:
            bad = rng.choice(["0 0 : 1\n", "1 : x\n", ": 2\n"])
            lines.insert(rng.randrange(len(lines) + 1), bad)
        files.append(("".join(lines), minima if len(minima) > 1 else ids))
    return files


def _no_constant(token):
    raise ValueError(f"non-JSON token {token}")


class TestErrorContractOnGeneratedInput:
    """Every command on generated files keeps the documented contract: exit 0
    or 1, one JSON line without ``NaN`` or ``Infinity`` (raw DOT only for a
    successful plain ``export-dot``), nothing on stderr, and an error kind
    that names a ``MorseflowError`` subclass."""

    def test_every_command_on_generated_files(self, tmp_path, capsys):
        rng = random.Random(28)
        codes = {}
        for i, (text, vertices) in enumerate(contract_files(rng, 200)):
            path = tmp_path / f"in{i}.scx"
            path.write_text(text, encoding="utf-8")
            ids = [str(v) for v in rng.sample(vertices * 2, 2)]
            level, to = sorted(rng.choice([-1.0, 0.5, 1.0, 2.0, 4.5, 9.0]) for _ in range(2))
            for argv in [
                ["validate"], ["critical"], ["gradient"], ["flow"], ["homology"],
                ["levels", "--level", repr(level)],
                ["levels", "--level", repr(level), "--to", repr(to)],
                ["collapse"], ["mountain-pass", "--min1", ids[0], "--min0", ids[1]],
                ["lscat"], ["minmax-check", "--min1", ids[0], "--min0", ids[1]],
                ["minmax-check"], ["random", "--seed", str(i)],
                ["export-dot"], ["export-dot", "--json"],
            ]:
                code = run([argv[0], "--in", str(path), *argv[1:]])
                out, err = capsys.readouterr()
                assert code in (0, 1) and err == "", (argv, text)
                codes[code] = codes.get(code, 0) + 1
                if code == 0 and argv == ["export-dot"]:
                    assert out.startswith("digraph gradient {\n") and out.endswith("}\n")
                    continue
                assert out.count("\n") == 1 and out.endswith("\n"), (argv, text)
                payload = json.loads(out, parse_constant=_no_constant)
                if code == 1:
                    kind = getattr(errors, payload["error"]["kind"])
                    assert issubclass(kind, errors.MorseflowError), (argv, text)
        assert set(codes) == {0, 1}
