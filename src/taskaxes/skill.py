"""Skill programs: parsing, priority projection, and phase execution.

A skill is an ordered list of phases (plus optional grasp directives).
Within a phase, translational and rotational controllers form separate
priority lists; each lower-priority axis is projected into the null
space of the higher-priority projected axes, so lower controllers can
never disturb higher ones. The surviving per-controller commands sum
into a single end-effector twist.

Skill source grammar (line comments start with '#'):

    skill NAME {
      uses ROLE: path/to/spec.json      # or the literal word: robot
      phase NAME budget=INT {
        Kind(role.label, ... [, theta=VALUE] [, kp=... kr=... kf=...]
             [, v_max=...] [, w_max=...] [, done_tol=...]);
        ...
      }
      grasp ROLE at KEYPOINT_LABEL
    }

Controller kinds and binding arities: PosAlign(kp, kp), PosWaypoint(kp,
kp, axis), AxisAlign(axis, axis), ForceAlign(axis). theta may also be
given positionally right after the bindings. Lengths are meters; angles
(AxisAlign theta and done_tol) are degrees in source text.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass

import numpy as np

from .controllers import (
    DEFAULT_DONE_TOL,
    DEFAULT_THETA,
    KIND_CLASS,
    TRANSLATIONAL,
    ControllerConfig,
    ControllerState,
    Gains,
    Limits,
    done_capable,
    step_controller,
)
from .errors import (
    DuplicateLabel,
    PriorityOverflow,
    SkillSyntaxError,
    SkillValidationError,
    TaskAxesError,
    UnboundSymbol,
    UnknownControllerKind,
)
from .geometry import norm3

ROBOT_ROLE_SOURCE = "robot"
MAX_PRIORITIES = 3
_PROJ_TOL = 1e-9


# ----------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class SkillPhase:
    name: str
    translational: tuple
    rotational: tuple
    step_budget: int


@dataclass(frozen=True)
class GraspStep:
    role: str
    keypoint: str


@dataclass(frozen=True)
class LiftedSkill:
    name: str
    uses: tuple            # ((role, source), ...) in declaration order
    steps: tuple           # SkillPhase | GraspStep in execution order

    @property
    def phases(self):
        return tuple(s for s in self.steps if isinstance(s, SkillPhase))


# ----------------------------------------------------------------------
# null-space priority projection


def project_axes(axes):
    """Project each axis into the null space of higher-priority ones.

    Returns one entry per input: the projected unit axis, or None when
    the residual collapses (the controller is inactive this tick). The
    orthogonalization runs against previously accepted projected axes
    and subtracts twice for numerical robustness near degeneracy.
    """
    basis = []
    out = []
    for axis in axes:
        r = np.asarray(axis, dtype=np.float64)
        if basis:
            for _ in range(2):
                for b in basis:
                    r = r - float(b @ r) * b
        n = norm3(r)
        if n < _PROJ_TOL:
            out.append(None)
        else:
            ahat = r / n
            basis.append(ahat)
            out.append(ahat)
    return out


def project_actions(outputs):
    """Surviving command of each output of one class, in priority order.

    The axes of the active outputs go through project_axes; each output
    gets (axis_hat, u_hat) with u_hat = u * (axis . axis_hat), or None
    when it is inactive or its axis collapses.
    """
    projected = project_axes([o.primary_axis for o in outputs if not o.inactive])
    commands, k = [], 0
    for out in outputs:
        ahat = None if out.inactive else projected[k]
        k += not out.inactive
        commands.append(None if ahat is None
                        else (ahat, out.action * float(out.primary_axis @ ahat)))
    return commands


@dataclass(slots=True)
class Twist:
    v: np.ndarray           # float64 (3,), m/s
    w: np.ndarray           # float64 (3,), rad/s


def _clamped_sum(commands, limit):
    total = np.zeros(3)
    for cmd in commands:
        if cmd is not None:
            axis_hat, u_hat = cmd
            total = total + u_hat * axis_hat
    n = norm3(total)
    if n > limit:
        total = total * (limit / n)
    return total


def compose_twist(trans_commands, rot_commands, limits: Limits) -> Twist:
    """Sum projected commands into one twist, norm-clamped per class."""
    return Twist(_clamped_sum(trans_commands, limits.v_max),
                 _clamped_sum(rot_commands, limits.w_max))


# ----------------------------------------------------------------------
# phase execution


@dataclass
class PhaseResult:
    outcome: str    # "done" | "budget_exhausted"
    ticks: int


def run_phase(phase: SkillPhase, env, limits: Limits, on_tick=None) -> PhaseResult:
    """Run one phase against an environment until done or out of budget.

    env must provide observe() -> ObservationBundle and apply(Twist).
    on_tick, when given, is called after each tick with the controllers'
    outputs and projected commands (translational then rotational, each
    by priority; a command is None when inactive) and the twist.
    The phase is done when every done-capable controller reports done on
    the same tick; a phase with no done-capable controllers runs its
    whole budget and counts as done. Every binding must name a grounded
    value of the observation (SkillRunner checks them before the run).
    """
    controllers = [(cfg, ControllerState()) for cfg in phase.translational + phase.rotational]
    n_trans = len(phase.translational)
    done_idx = [k for k, (cfg, _) in enumerate(controllers) if done_capable(cfg)]
    ticks = 0
    while ticks < phase.step_budget:
        obs = env.observe()
        outputs = [step_controller(cfg, obs, state) for cfg, state in controllers]
        trans, rot = project_actions(outputs[:n_trans]), project_actions(outputs[n_trans:])
        twist = compose_twist(trans, rot, limits)
        env.apply(twist)
        ticks += 1
        if on_tick is not None:
            on_tick(outputs, trans + rot, twist)
        if done_idx and all([outputs[k].done for k in done_idx]):
            return PhaseResult("done", ticks)
    if phase.step_budget > 0 and not done_idx:
        return PhaseResult("done", ticks)
    return PhaseResult("budget_exhausted", ticks)


# ----------------------------------------------------------------------
# DSL lexer


# whitespace and '#' line comments; one token; a `uses` path up to '#' or
# the end of its line
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_TOKEN_RE = re.compile(r"(?P<NUMBER>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<PUNCT>[{}()\[\],;:=.])")
_PATH_RE = re.compile(r"[ \t]*([^\n#]*)")
_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
          "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA", ";": "SEMI",
          ":": "COLON", "=": "EQUALS", ".": "DOT"}


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    col: int


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def _where(self, pos):
        """1-based (line, column) of offset `pos`."""
        line = bisect.bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    def next(self) -> _Token:
        self.pos = _SKIP_RE.match(self.text, self.pos).end()
        line, col = self._where(self.pos)
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            if self.pos == len(self.text):
                return _Token("EOF", None, line, col)
            raise SkillSyntaxError(line, col, f"a token (found {self.text[self.pos]!r})")
        self.pos = m.end()
        kind, value = m.lastgroup, m.group()
        if kind == "NUMBER":
            value = float(value)
            if not math.isfinite(value):
                raise SkillSyntaxError(line, col, f"a finite number (found {m.group()!r})")
        elif kind == "PUNCT":
            kind = _PUNCT[value]
        return _Token(kind, value, line, col)

    def rest_of_line(self) -> _Token:
        m = _PATH_RE.match(self.text, self.pos)
        self.pos = m.end()
        line, col = self._where(m.start(1))
        value = m.group(1).rstrip()
        if not value:
            raise SkillSyntaxError(line, col, "a spec file path or 'robot'")
        return _Token("PATH", value, line, col)


# ----------------------------------------------------------------------
# DSL parser


_PARAM_NAMES = ("theta", "kp", "kr", "kf", "v_max", "w_max", "done_tol")


class _Parser:
    def __init__(self, text, default_gains=None, default_limits=None):
        self.lex = _Lexer(text)
        self.tok = self.lex.next()
        self.default_gains = default_gains or Gains()
        self.default_limits = default_limits or Limits()

    def _advance(self):
        self.tok = self.lex.next()

    def _fail(self, expected, tok=None):
        t = tok or self.tok
        raise SkillSyntaxError(t.line, t.col, expected)

    def _expect(self, kind, expected):
        if self.tok.kind != kind:
            self._fail(expected)
        tok = self.tok
        self._advance()
        return tok

    def _at_keyword(self, word):
        return self.tok.kind == "NAME" and self.tok.value == word

    def _expect_keyword(self, word):
        if not self._at_keyword(word):
            self._fail(f"'{word}'")
        self._advance()

    def parse(self) -> LiftedSkill:
        self._expect_keyword("skill")
        name = self._expect("NAME", "skill name").value
        self._expect("LBRACE", "'{'")
        uses = []
        declared = set()
        while self._at_keyword("uses"):
            self._advance()
            role_tok = self._expect("NAME", "role name")
            if role_tok.value in declared:
                raise DuplicateLabel(f"role {role_tok.value!r} declared twice",
                                     role_tok.line, role_tok.col)
            declared.add(role_tok.value)
            if self.tok.kind != "COLON":
                self._fail("':'")
            path = self.lex.rest_of_line().value
            self._advance()
            uses.append((role_tok.value, path))
        steps = []
        phase_names = set()
        while self.tok.kind != "RBRACE":
            if self._at_keyword("phase"):
                steps.append(self._phase(declared, phase_names))
            elif self._at_keyword("grasp"):
                steps.append(self._grasp(declared))
            else:
                self._fail("'phase', 'grasp', or '}'")
        closing = self.tok
        self._advance()
        self._expect("EOF", "end of input")
        if not any(isinstance(s, SkillPhase) for s in steps):
            raise SkillValidationError("skill needs at least one phase",
                                       closing.line, closing.col)
        return LiftedSkill(name=name, uses=tuple(uses), steps=tuple(steps))

    def _grasp(self, declared):
        self._advance()
        role_tok = self._expect("NAME", "role name")
        if role_tok.value not in declared:
            raise UnboundSymbol(f"role {role_tok.value!r} not declared with 'uses'",
                                role_tok.line, role_tok.col)
        self._expect_keyword("at")
        label = self._expect("NAME", "keypoint label").value
        return GraspStep(role=role_tok.value, keypoint=label)

    def _phase(self, declared, phase_names):
        self._advance()
        name_tok = self._expect("NAME", "phase name")
        if name_tok.value in phase_names:
            raise DuplicateLabel(f"phase {name_tok.value!r} declared twice",
                                 name_tok.line, name_tok.col)
        phase_names.add(name_tok.value)
        self._expect_keyword("budget")
        self._expect("EQUALS", "'='")
        budget_tok = self._expect("NUMBER", "step budget")
        if budget_tok.value < 0 or not float(budget_tok.value).is_integer():
            self._fail("a non-negative integer budget", budget_tok)
        self._expect("LBRACE", "'{'")
        controllers = [self._controller(declared)]
        while self.tok.kind == "SEMI":
            self._advance()
            if self.tok.kind == "RBRACE":
                break
            controllers.append(self._controller(declared))
        self._expect("RBRACE", "'}' or ';'")
        trans, rot = [], []
        for cfg, line, col in controllers:
            stack = trans if cfg.control_class == TRANSLATIONAL else rot
            stack.append(cfg)
            if len(stack) > MAX_PRIORITIES:
                raise PriorityOverflow(
                    f"more than {MAX_PRIORITIES} {cfg.control_class} controllers "
                    f"in phase {name_tok.value!r}", line, col)
        return SkillPhase(name=name_tok.value, translational=tuple(trans),
                          rotational=tuple(rot), step_budget=int(budget_tok.value))

    def _controller(self, declared):
        kind_tok = self._expect("NAME", "controller kind")
        if kind_tok.value not in KIND_CLASS:
            raise UnknownControllerKind(f"unknown controller kind {kind_tok.value!r}",
                                        kind_tok.line, kind_tok.col)
        kind = kind_tok.value
        self._expect("LPAREN", "'('")
        bindings = []
        params = {}     # theta and the named parameters, all after the bindings
        while True:
            if self.tok.kind == "NAME":
                name_tok = self.tok
                self._advance()
                if self.tok.kind == "DOT":
                    if params:
                        self._fail("a parameter, not a binding", name_tok)
                    if name_tok.value not in declared:
                        raise UnboundSymbol(
                            f"role {name_tok.value!r} not declared with 'uses'",
                            name_tok.line, name_tok.col)
                    self._advance()
                    label = self._expect("NAME", "binding label").value
                    bindings.append(f"{name_tok.value}.{label}")
                elif self.tok.kind == "EQUALS":
                    if name_tok.value not in _PARAM_NAMES:
                        self._fail(f"one of {', '.join(_PARAM_NAMES)}", name_tok)
                    if name_tok.value in params:
                        self._fail(f"a single {name_tok.value} parameter", name_tok)
                    self._advance()
                    value = self._value()
                    if name_tok.value != "theta" and not isinstance(value, float):
                        self._fail("a scalar value", name_tok)
                    params[name_tok.value] = value
                else:
                    self._fail("'.' or '='")
            elif self.tok.kind in ("NUMBER", "LBRACKET"):
                if "theta" in params:
                    self._fail("a named parameter (theta already given)")
                params["theta"] = self._value()
            else:
                self._fail("a binding, value, or parameter")
            if self.tok.kind == "COMMA":
                self._advance()
                continue
            self._expect("RPAREN", "')' or ','")
            break
        try:
            gains = Gains(kp=params.get("kp", self.default_gains.kp),
                          kr=params.get("kr", self.default_gains.kr),
                          kf=params.get("kf", self.default_gains.kf))
            limits = Limits(v_max=params.get("v_max", self.default_limits.v_max),
                            w_max=params.get("w_max", self.default_limits.w_max))
            cfg = ControllerConfig(kind=kind, bindings=tuple(bindings),
                                   theta=params.get("theta"), gains=gains, limits=limits,
                                   done_tol=params.get("done_tol"))
        except TaskAxesError as err:
            raise err.annotate(f"line {kind_tok.line}, col {kind_tok.col}")
        return cfg, kind_tok.line, kind_tok.col

    def _value(self):
        if self.tok.kind == "NUMBER":
            return self._number()
        if self.tok.kind != "LBRACKET":
            self._fail("a number or '['")
        self._advance()
        if self.tok.kind == "RBRACKET":
            self._advance()
            return ()
        return self._items(self._vector if self.tok.kind == "LBRACKET" else self._number)

    def _items(self, item):
        """The rest of a non-empty '[' list: item (',' item)* ']', as a tuple."""
        values = [item()]
        while self.tok.kind == "COMMA":
            self._advance()
            values.append(item())
        self._expect("RBRACKET", "']'")
        return tuple(values)

    def _vector(self):
        self._expect("LBRACKET", "'['")
        return self._items(self._number)

    def _number(self):
        return float(self._expect("NUMBER", "a number").value)


def parse_skill(text: str, default_gains: Gains = None,
                default_limits: Limits = None) -> LiftedSkill:
    """Parse skill source text into a validated LiftedSkill.

    default_gains/default_limits preset what unspecified controller
    parameters resolve to (the packaged defaults otherwise); explicit
    values in the source always win.
    """
    return _Parser(text, default_gains, default_limits).parse()


# ----------------------------------------------------------------------
# canonical printer


def _fmt_number(x) -> str:
    return repr(float(x))


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return _fmt_number(value)
    if value and isinstance(value[0], tuple):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return "[" + ", ".join(_fmt_number(x) for x in value) + "]"


def _controller_source(cfg: ControllerConfig) -> str:
    parts = list(cfg.bindings)
    if cfg.theta != DEFAULT_THETA.get(cfg.kind):
        parts.append(f"theta={_fmt_value(cfg.theta)}")
    for name, value, default in (("kp", cfg.gains.kp, Gains.kp),
                                 ("kr", cfg.gains.kr, Gains.kr),
                                 ("kf", cfg.gains.kf, Gains.kf),
                                 ("v_max", cfg.limits.v_max, Limits.v_max),
                                 ("w_max", cfg.limits.w_max, Limits.w_max),
                                 ("done_tol", cfg.done_tol, DEFAULT_DONE_TOL.get(cfg.kind))):
        if value != default:
            parts.append(f"{name}={_fmt_number(value)}")
    return f"{cfg.kind}({', '.join(parts)})"


def format_skill(skill: LiftedSkill) -> str:
    """Canonical source text; parse(format_skill(ast)) == ast."""
    lines = [f"skill {skill.name} {{"]
    for role, source in skill.uses:
        lines.append(f"  uses {role}: {source}")
    for step in skill.steps:
        if isinstance(step, GraspStep):
            lines.append(f"  grasp {step.role} at {step.keypoint}")
            continue
        lines.append(f"  phase {step.name} budget={step.step_budget} {{")
        for cfg in step.rotational + step.translational:
            lines.append(f"    {_controller_source(cfg)};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
