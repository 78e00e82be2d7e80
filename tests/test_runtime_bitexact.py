"""Bit-exactness of the skill lexer and of the per-tick grounded view.

The lexer once walked the source one character at a time to keep its
line and column counters; it now matches three compiled patterns and
reads positions from a table of line starts. GroundedAnchors once kept
a stale world value in an attached entry's slot and rebuilt the log
lists in a separate pass (`as_lists`); it now moves a grasped role's
entries from a world table to a held table, returns the values with
the held ones in a list, and the tick log writes the lists from its
layout. The reference copies below are the old versions, verbatim in
behaviour; the new code must give the same tokens, positions and
errors, and the same values and logged lists, on random input.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskaxes.errors import SkillSyntaxError
from taskaxes.geometry import CameraIntrinsics, Frame
from taskaxes.grounding import GroundedParams
from taskaxes.scenes import sample_box
from taskaxes.simulator import (
    ROBOT_BUILTIN_AXES,
    ROBOT_BUILTIN_KEYPOINT,
    GroundedAnchors,
    Scene,
    SceneObject,
    SimLog,
    SimState,
    SkillRunner,
)
from taskaxes.skill import SkillPhase, Twist, _Lexer, parse_skill

# ---------------------------------------------------------------- reference lexer

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", ";": "SEMI",
          ":": "COLON", "=": "EQUALS", ".": "DOT"}


@dataclass
class RefToken:
    kind: str
    value: object
    line: int
    col: int


class RefLexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _step(self, n=1):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_ws(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._step()
            elif ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._step()
            else:
                return

    def next(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return RefToken("EOF", None, self.line, self.col)
        line, col = self.line, self.col
        ch = self.text[self.pos]
        m = _NUM_RE.match(self.text, self.pos)
        if m and (ch.isdigit() or
                  (ch in "+-." and self.pos + 1 < len(self.text)
                   and (self.text[self.pos + 1].isdigit() or self.text[self.pos + 1] == "."))):
            if not math.isfinite(float(m.group())):
                raise SkillSyntaxError(line, col, f"a finite number (found {m.group()!r})")
            self._step(m.end() - self.pos)
            return RefToken("NUMBER", float(m.group()), line, col)
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            self._step(m.end() - self.pos)
            return RefToken("NAME", m.group(), line, col)
        if ch in _PUNCT:
            self._step()
            return RefToken(_PUNCT[ch], ch, line, col)
        raise SkillSyntaxError(line, col, f"a token (found {ch!r})")

    def rest_of_line(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self._step()
        line, col = self.line, self.col
        chars = []
        while self.pos < len(self.text) and self.text[self.pos] not in "\n#":
            chars.append(self.text[self.pos])
            self._step()
        value = "".join(chars).rstrip()
        if not value:
            raise SkillSyntaxError(line, col, "a spec file path or 'robot'")
        return RefToken("PATH", value, line, col)


# ---------------------------------------------------------------- reference anchors


class RefAnchors:
    def __init__(self):
        self._keypoints = {}
        self._axes = {}
        self._ee_keypoints = {}
        self._ee_axes = {}
        self._keypoint_lists = {}
        self._axis_lists = {}
        self._robot_labels = []
        self._roles = {}

    def add_robot_role(self, role):
        self._robot_labels.append(
            (f"{role}.{ROBOT_BUILTIN_KEYPOINT}",
             tuple((f"{role}.{axis}", i) for i, axis in enumerate(ROBOT_BUILTIN_AXES))))

    def add_role(self, role, grounded):
        labels = []
        for label, pos in grounded.keypoints.items():
            q = f"{role}.{label}"
            self._keypoints[q] = np.asarray(pos, dtype=np.float64)
            self._keypoint_lists[q] = self._keypoints[q].tolist()
            labels.append(q)
        for label, direction in grounded.axes.items():
            q = f"{role}.{label}"
            self._axes[q] = np.asarray(direction, dtype=np.float64)
            self._axis_lists[q] = self._axes[q].tolist()
            labels.append(q)
        self._roles[role] = labels

    def attach_role(self, role, ee):
        inv = ee.inverse()
        for q in self._roles.get(role, []):
            if q in self._keypoint_lists:
                self._ee_keypoints[q] = inv.apply(self._keypoints[q])
                del self._keypoint_lists[q]
            if q in self._axis_lists:
                self._ee_axes[q] = inv.apply_dir(self._axes[q])
                del self._axis_lists[q]

    def current(self, ee):
        keypoints = dict(self._keypoints)
        for q, value in self._ee_keypoints.items():
            keypoints[q] = ee.apply(value)
        axes = dict(self._axes)
        for q, value in self._ee_axes.items():
            axes[q] = ee.apply_dir(value)
        for keypoint, builtin_axes in self._robot_labels:
            keypoints[keypoint] = ee.origin
            for q, i in builtin_axes:
                axes[q] = ee.rotation[:, i]
        return GroundedParams(keypoints=keypoints, axes=axes)

    def as_lists(self, grounded):
        kp_lists, axis_lists = self._keypoint_lists, self._axis_lists
        return {
            "keypoints": {q: kp_lists[q] if q in kp_lists else p.tolist()
                          for q, p in grounded.keypoints.items()},
            "axes": {q: axis_lists[q] if q in axis_lists else d.tolist()
                     for q, d in grounded.axes.items()},
        }


# ---------------------------------------------------------------- lexer


FRAGMENTS = ["skill", "uses", "robot", "a", "_x9", "Z", "e", "E", "0", "7", "0.5", ".5",
             "5.", "1e3", "2.5E-2", "1e999", "-1e999", "+", "-", ".", "..", "#", "# c {",
             " ", "  ", "\t", "\r", "\n", "\n\n", "{", "}", "(", ")", "[", "]", ",", ";",
             ":", "=", "specs/a.json", "٣", "²", "\x0c", "é", "$", " "]
SOURCES = (st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)
           | st.text(alphabet="ab1.e+-# \t\r\n{}:;٣", max_size=40))


def _stream(lexer, ops):
    """(kind, value, line, col) per call, True calling rest_of_line; a
    syntax error ends the stream with its type, message and position."""
    out = []
    try:
        for path in ops:
            tok = lexer.rest_of_line() if path else lexer.next()
            out.append((tok.kind, tok.value, tok.line, tok.col))
    except SkillSyntaxError as err:
        out.append((type(err).__name__, str(err), err.line, err.col))
    return out


@settings(max_examples=1500, deadline=None)
@given(SOURCES, st.lists(st.booleans(), max_size=20))
def test_lexer_matches_reference(text, ops):
    # the drawn calls, then next() until the text is surely consumed
    ops = ops + [False] * (len(text) + 1)
    assert _stream(_Lexer(text), ops) == _stream(RefLexer(text), ops)


def test_lexer_positions_and_errors_on_known_text():
    text = "skill s {\n  uses r:   robot  # arm\n\t# note\n  x = -.5e1 }\n"
    lex = _Lexer(text)
    toks = [lex.next() for _ in range(6)]
    toks.append(lex.rest_of_line())
    toks += [lex.next() for _ in range(5)]
    assert [(t.kind, t.value, t.line, t.col) for t in toks] == [
        ("NAME", "skill", 1, 1), ("NAME", "s", 1, 7), ("LBRACE", "{", 1, 9),
        ("NAME", "uses", 2, 3), ("NAME", "r", 2, 8), ("COLON", ":", 2, 9),
        ("PATH", "robot", 2, 13),
        ("NAME", "x", 4, 3), ("EQUALS", "=", 4, 5), ("NUMBER", -5.0, 4, 7),
        ("RBRACE", "}", 4, 13), ("EOF", None, 5, 1)]
    for bad, where in (("x 1e999", (1, 3)), ("x\n  $", (2, 3))):
        lex = _Lexer(bad)
        lex.next()
        with pytest.raises(SkillSyntaxError) as err:
            lex.next()
        assert (err.value.line, err.value.col) == where
    lex = _Lexer("uses r:  # no path\n")
    lex.next(), lex.next(), lex.next()
    with pytest.raises(SkillSyntaxError,
                       match=r"^line 1, col 10: expected a spec file path or 'robot'$"):
        lex.rest_of_line()


# ---------------------------------------------------------------- anchors


ROLES = st.lists(st.text(alphabet="ab_", min_size=1, max_size=3), min_size=1,
                 max_size=4, unique=True)
LABELS = st.lists(st.text(alphabet="pq.", min_size=1, max_size=3), max_size=3, unique=True)
VEC = st.lists(st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: x or 0.0),
               min_size=3, max_size=3)
POSE = st.tuples(VEC, st.lists(st.floats(-180.0, 180.0), min_size=3, max_size=3))


@st.composite
def anchor_scripts(draw):
    roles = draw(ROLES)
    robot = {r for r in roles if draw(st.booleans())}
    grounded = {}
    for role in roles:
        if role not in robot:
            kps = {label: np.array(draw(VEC)) for label in draw(LABELS)}
            axes = {label: np.array(draw(VEC)) for label in draw(LABELS)}
            grounded[role] = GroundedParams(keypoints=kps, axes=axes)
    events = draw(st.lists(st.tuples(st.sampled_from(roles + [None]), POSE),
                           min_size=1, max_size=8))
    return roles, robot, grounded, events


NO_CONTROLLERS = SkillPhase(name="p", translational=(), rotational=(), step_budget=1)


@settings(max_examples=400, deadline=None)
@given(anchor_scripts())
def test_anchors_match_reference(script):
    roles, robot, grounded, events = script
    new, ref = GroundedAnchors(), RefAnchors()
    for role in roles:
        for anchors in (new, ref):
            if role in robot:
                anchors.add_robot_role(role)
            else:
                anchors.add_role(role, grounded[role])
    for grasped, (origin, rpy) in events:
        ee = Frame.from_rpy_deg(origin, rpy)
        if grasped is not None:
            new.attach_role(grasped, ee)
            ref.attach_role(grasped, ee)
        held = new.current(ee)
        values = new.view
        ref_values = ref.current(ee)
        # the axes a controller derives from once per phase are exactly
        # the world-fixed ones
        assert set(new.fixed_axes) == set(ref._axis_lists)
        for kind in ("keypoints", "axes"):
            got, want = getattr(values, kind), getattr(ref_values, kind)
            assert got.keys() == want.keys()
            for q in want:
                assert got[q].dtype == want[q].dtype
                assert got[q].tobytes() == want[q].tobytes()
        # the grounded lists of a tick the runner logs at this pose
        layout = new.layout()
        log = SimLog()
        log.begin_phase(NO_CONTROLLERS, 0, ee, layout)
        log.record(SimState(ee=ee), held, [], [], Twist(np.zeros(3), np.zeros(3)))
        lists = log.records[0]["grounded"]
        ref_lists = ref.as_lists(ref_values)
        assert lists == ref_lists
        assert json.dumps(lists, sort_keys=True) == json.dumps(ref_lists, sort_keys=True)
        # world-fixed lists are built once per phase, not per tick: a
        # tick's row holds only the held values
        world, held_labels, _ = layout
        assert world == {"keypoints": ref._keypoint_lists, "axes": ref._axis_lists}
        assert sorted(held_labels) == sorted([("keypoints", q) for q in ref._ee_keypoints]
                                             + [("axes", q) for q in ref._ee_axes])
        assert len(held) == len(held_labels)


def test_runner_keeps_only_the_lists_of_the_last_observation():
    block = SceneObject(name="block", pose=Frame.from_rpy_deg((0, 0, 0.5), (0, 0, 0)),
                        cloud=sample_box(0.06, 0.06, 0.01, 0.002))
    scene = Scene(objects=[block], intrinsics=CameraIntrinsics(
        fx=300.0, fy=300.0, cx=80.0, cy=60.0, width=160, height=120))
    skill = parse_skill("skill s {\n  uses r: robot\n  phase p budget=3 {\n"
                        "    PosAlign(r.pos, r.pos, theta=[0.01, 0, 0])\n  }\n}\n")
    runner = SkillRunner(skill, scene, {})
    result = runner.run()
    assert not hasattr(runner, "_last_obs")
    records = result.log.records
    assert len(records) == 3
    # each record logs the grounding observed before its tick moved the gripper
    origins = [scene.ee_start.origin.tolist()] + [r["ee"]["origin"] for r in records]
    assert [r["grounded"]["keypoints"]["r.pos"] for r in records] == origins[:-1]
    assert records[0]["grounded"] is not records[1]["grounded"]
