"""Seeded workloads of the larmour benchmark.

Each workload turns ``random.Random(seed)`` into a stream of operations.
An operation names a public entry point (``boundary``, ``witt_equal``,
``is_anisotropic_herm`` or the CLI's ``main``) and carries only the built
forms or documents it is called with; what the checker needs to know
(the unconjugated form, the expected case label, ...) travels beside it
in ``meta`` and never reaches the program.

The stream is cut into rounds.  A round is the smallest block whose mix
of cases, primes, dimensions and commands is balanced, and a timed phase
always stops at a round boundary, so the mix of a run does not depend on
where the clock ran out.

Nothing here imports ``larmour`` at module level: the runner imports the
package several times to time set-up, and every function below resolves
``larmour`` when it is called, so it always sees the last import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

PRIMES = (3, 5, 61, 8191)
B_CASES = ("B11", "B12", "B211", "B212", "B221", "B222")
DIGEST_OPS = 30  # the digest covers the first ops of the stream, run or not


@dataclass
class Op:
    fn: str  # key of the dispatch table: the public call this op makes
    args: tuple
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers shared by the workloads
# ---------------------------------------------------------------------------


def _lm():
    """The larmour modules the benchmark calls, from the current import."""
    import larmour
    import larmour.cli
    import larmour.involutions
    import larmour.quaternion
    import larmour.random_forms
    import larmour.residue_maps
    import larmour.valued_field

    return larmour


def dispatch() -> dict:
    """Public entry points, looked up now so that installed wrappers count."""
    L = _lm()
    rm, cli = L.residue_maps, L.cli

    def cli_call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return {
        "boundary": rm.boundary,
        "witt_equal": rm.witt_equal,
        "is_anisotropic_herm": rm.is_anisotropic_herm,
        "cli": cli_call,
    }


def half_units(u) -> int:
    """2 * nu_D(u); exact for a nonzero element of a division algebra."""
    return _lm().quaternion.val_floor_half_units(u)


def class_doc(cls):
    """A Witt class in the CLI's JSON shape (kind, parity, discriminant)."""
    if cls is None:
        return None
    if hasattr(cls, "rank_parity"):
        disc = None if cls.disc is None else cls.field.format_raw(cls.disc)
        return {"kind": "quad_witt", "rank_parity": cls.rank_parity, "disc": disc}
    return {"kind": "herm_rank", "parity": cls.parity, "skew": cls.skew}


def class_parity(cls) -> int:
    if cls is None:
        return 0
    return cls.rank_parity if hasattr(cls, "rank_parity") else cls.parity


def boundary_doc(b) -> dict:
    return {"c0": class_doc(b.c0), "c1": class_doc(b.c1), "is_zero": b.is_zero()}


def canon_boundary(b) -> str:
    return json.dumps(boundary_doc(b), sort_keys=True)


def check_boundary_shape(b, record, dim) -> str | None:
    """Shape facts that hold whatever the decomposition chose.

    c1 is absent exactly when s_eps = 2, and the rank parities of the two
    residue classes add up to dim(h) mod 2, because every entry lands in
    exactly one residue form.
    """
    if not hasattr(b, "c0"):
        return f"not a boundary class: {type(b).__name__}"
    if (b.c1 is None) != (record.s_eps == 2):
        return "c1 present iff s_eps != 2 violated"
    if (class_parity(b.c0) + class_parity(b.c1)) % 2 != dim % 2:
        return "residue rank parities do not add up to dim(h)"
    return None


def verify_witnesses(split, record) -> str | None:
    """Re-check sigma(t) * source * t = target to VERIFY_HALF_UNITS."""
    L = _lm()
    threshold = L.VERIFY_HALF_UNITS
    for w in split.witnesses:
        resid = record.sigma.apply(w.t) * w.source_entry * w.t - w.target_entry
        if half_units(resid) < threshold:
            return f"witness residual below {threshold} half-units"
    return None


def conjugate(rng, form, record):
    """The same form with each entry conjugated by a random unit."""
    L = _lm()
    entries = []
    for u in form.entries:
        t = L.random_forms.rand_unit(rng, record.algebra)
        entries.append(record.sigma.apply(t) * u * t)
    return L.HermitianForm(record.algebra, record.sigma, record.eps, tuple(entries))


def is_dense(u) -> bool:
    """More nonzero coefficients in one coordinate than a sparse draw has."""
    return any(sum(1 for x in c.coeffs if x) > 4 for c in u.co)


def entry_key(u) -> tuple:
    """An entry's identity across ops: its algebra and its coordinates."""
    desc = u.algebra.descriptor()
    return (desc["p"], desc["a"], desc["b"], tuple(str(c) for c in u.co))


def b_records():
    """Every algebra and case record the library workloads use."""
    cr = _lm().random_forms.case_record
    return {(label, p): cr(label, p) for p in PRIMES for label in B_CASES}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    round_size = 1  # ops per round
    window_rounds = 1  # rounds per timing window: a window repeats the same input mix
    tail_percentile = 99.0

    def setup(self):
        """Build what the ops need; timed as part of setup_s."""
        raise NotImplementedError

    def round(self, rng, state, index) -> list:
        """Ops of round ``index``, drawn from rng (called before timing)."""
        raise NotImplementedError

    def canonical(self, op, answer) -> str:
        raise NotImplementedError

    def check(self, ops, answers, state) -> dict:
        """Map op index -> reason for each op whose answer is wrong."""
        raise NotImplementedError

    def entries_of(self, op) -> list:
        """Entry tuples, one per form the op decomposes (input properties)."""
        return [op.args[0].entries]

    def cleanup(self):
        pass


class BoundaryFresh(Workload):
    """boundary(h) on fresh diagonal forms, half of them densely conjugated."""

    name = "boundary-fresh"
    round_size = 8
    window_rounds = 24  # every (case, p) once

    def setup(self):
        return {"records": b_records(), "seen": set()}

    def round(self, rng, state, index):
        L = _lm()
        label = B_CASES[index % len(B_CASES)]
        p = PRIMES[(index // len(B_CASES)) % len(PRIMES)]
        record = state["records"][(label, p)]
        ops = []
        for k in range(self.round_size):
            dim, dense = 1 + k % 4, k // 4 == 1
            while True:
                base = L.random_forms.rand_form(rng, record, dim, dim, -2, 3)
                form = conjugate(rng, base, record) if dense else base
                keys = [hash(entry_key(u)) for u in form.entries]
                if len(set(keys)) == dim and not state["seen"].intersection(keys):
                    break
            state["seen"].update(keys)
            meta = {"record": record, "base": base, "dense": dense}
            ops.append(Op("boundary", (form, record), meta))
        return ops

    def canonical(self, op, answer):
        return f"{op.meta['record'].label}:{canon_boundary(answer)}"

    def check(self, ops, answers, state):
        L = _lm()
        bad = {}
        for i, (op, b) in enumerate(zip(ops, answers)):
            form, record = op.args
            reason = check_boundary_shape(b, record, form.dim)
            if reason is None and op.meta["dense"]:
                # well-definedness: conjugating entries leaves the class alone
                if L.boundary(op.meta["base"], record) != b:
                    reason = "boundary moved under unit conjugation"
            if reason is None and not op.meta["dense"] and form.dim > 1 and i % 2 == 0:
                parts = [L.boundary(L.HermitianForm(record.algebra, record.sigma, record.eps, (u,)), record)
                         for u in form.entries]
                total = parts[0]
                for part in parts[1:]:
                    total = total + part
                if total != b:
                    reason = "boundary is not additive over the entries"
            if reason is None and i % 8 == 0:
                reason = verify_witnesses(L.larmour_decompose(form, record), record)
            if reason is None and i % 16 == 0:
                if not L.boundary(form.orth_sum(form.negated()), record).is_zero():
                    reason = "boundary(h + (-h)) is not zero"
            if reason:
                bad[i] = reason
        return bad


class WittReuse(Workload):
    """Criteria 5/6 query groups over a seeded pool of entries."""

    name = "witt-reuse"
    round_size = 5
    window_rounds = 24  # every (case, p) once; each dims pair six times
    DIM_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
    POOL = 6  # entries per (case, p)

    def setup(self):
        return {"records": b_records(), "pool": {}}

    def _pool(self, rng, state, record, key):
        if key not in state["pool"]:
            L = _lm()
            pool = []
            for i in range(self.POOL):
                base = L.random_forms.rand_form(rng, record, 1, 1, -2, 3)
                form = conjugate(rng, base, record) if i % 2 else base
                pool.append(form.entries[0])
            state["pool"][key] = pool
        return state["pool"][key]

    def round(self, rng, state, index):
        L = _lm()
        c, q = index % len(B_CASES), (index // len(B_CASES)) % len(PRIMES)
        label, p = B_CASES[c], PRIMES[q]
        d1, d2 = self.DIM_PAIRS[(c + q) % len(self.DIM_PAIRS)]
        record = state["records"][(label, p)]
        pool = self._pool(rng, state, record, (label, p))
        picks = rng.sample(pool, d1 + d2)

        def form(entries):
            return L.HermitianForm(record.algebra, record.sigma, record.eps, tuple(entries))

        h1, h2 = form(picks[:d1]), form(picks[d1:])
        h12 = h1.orth_sum(h2)
        h1c = conjugate(rng, h1, record)
        meta = {"record": record, "h1": h1, "h2": h2}
        return [
            Op("boundary", (h12, record), dict(meta, role="b12")),
            Op("boundary", (h1, record), dict(meta, role="b1")),
            Op("boundary", (h2, record), dict(meta, role="b2")),
            Op("witt_equal", (h1, h1c), dict(meta, role="eq")),
            Op("is_anisotropic_herm", (h12,), dict(meta, role="an")),
        ]

    def canonical(self, op, answer):
        label = op.meta["record"].label
        if op.fn == "boundary":
            return f"{label}:{op.meta['role']}:{canon_boundary(answer)}"
        return f"{label}:{op.meta['role']}:{answer!r}"

    def entries_of(self, op):
        if op.fn == "witt_equal":
            return [op.args[0].entries + op.args[1].negated().entries]
        return [op.args[0].entries]

    def check(self, ops, answers, state):
        L = _lm()
        bad = {}
        for g in range(0, len(ops) - len(ops) % self.round_size, self.round_size):
            group = ops[g : g + self.round_size]
            b12, b1, b2, eq, an = answers[g : g + self.round_size]
            record, h1 = group[0].meta["record"], group[0].meta["h1"]
            for k, (op, b) in enumerate(zip(group[:3], (b12, b1, b2))):
                reason = check_boundary_shape(b, record, op.args[0].dim)
                if reason:
                    bad[g + k] = reason
            if g + 0 not in bad and g + 1 not in bad and g + 2 not in bad:
                if b12 != b1 + b2:
                    bad[g] = "boundary(h1 + h2) != boundary(h1) + boundary(h2)"
            if eq is not True:
                bad[g + 3] = "witt_equal(h, unit-conjugate of h) is not True"
            if not isinstance(an, bool):
                bad[g + 4] = "is_anisotropic_herm did not return a bool"
            elif (g // self.round_size) % 4 == 0:
                if L.is_anisotropic_herm(h1.orth_sum(h1.negated())):
                    bad[g + 4] = "h1 + (-h1) reported anisotropic"
                reason = verify_witnesses(L.larmour_decompose(group[0].args[0], record), record)
                if reason:
                    bad[g] = reason
        return bad


class DeepValuation(Workload):
    """boundary on entries of value around +-100, +-300, +-1000."""

    name = "deep-valuation"
    round_size = 9
    tail_percentile = 75.0
    MAGNITUDES = (100, 300, 1000)
    DIMS = (1, 2, 1)

    def setup(self):
        return {"records": b_records()}

    def round(self, rng, state, index):
        # Every round holds the same (|m|, dim) slots, so rounds cost alike.
        # Cost grows with dim * |m|; the dims (1, 2, 1) per magnitude put the
        # median inside the |m| = 300, dim 1 slots and p75 inside the
        # |m| = 1000, dim 1 slots, away from a jump between cost classes.
        # Case, p and sign rotate through the slots from round to round.
        L = _lm()
        ops = []
        for k in range(self.round_size):
            sign = 1 if (k + index // 2) % 2 == 0 else -1
            label, p = B_CASES[(k + index) % len(B_CASES)], PRIMES[(k // 3 + index) % len(PRIMES)]
            record = state["records"][(label, p)]
            K = record.algebra.base
            dim, m = self.DIMS[k % 3], sign * self.MAGNITUDES[k // 3]
            small = L.random_forms.rand_form(rng, record, dim, dim, 0, 1)
            scale = K.t(m)
            deep = L.HermitianForm(
                record.algebra, record.sigma, record.eps, tuple(u.scale(scale) for u in small.entries)
            )
            ops.append(Op("boundary", (deep, record), {"record": record, "small": small, "m": m}))
        return ops

    def canonical(self, op, answer):
        return f"{op.meta['record'].label}:{op.meta['m']}:{canon_boundary(answer)}"

    def check(self, ops, answers, state):
        L = _lm()
        bad = {}
        for i, (op, b) in enumerate(zip(ops, answers)):
            form, record = op.args
            reason = check_boundary_shape(b, record, form.dim)
            # m is even, so u * t^m = t^(m/2) u t^(m/2): the same class as u
            if reason is None and L.boundary(op.meta["small"], record) != b:
                reason = "boundary of u * t^m differs from boundary of u"
            if reason is None and i % self.round_size == 0:
                reason = verify_witnesses(L.larmour_decompose(form, record), record)
            if reason:
                bad[i] = reason
        return bad


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("classify", "decompose", "residues", "boundary", "witt-equal")
TWISTS = ("tau", "x", "y", "yz")  # canonical, fast-path x / y slots, adapted y slot


def _cli_templates():
    """One round: 16 documents over F_p((t)) and 4 over Q((t))."""
    out = []
    for k in range(16):
        out.append(
            {
                "cmd": CLI_COMMANDS[k % 5],
                "p": PRIMES[k // 4],
                "twist": TWISTS[k % 4],
                "eps": 1 if (k // 2) % 2 == 0 else -1,
                "raw_constants": (k // 8) % 2 == 1,
            }
        )
    for k, (cmd, twist) in enumerate(
        (("classify", "tau"), ("decompose", "x"), ("residues", "tau"), ("residues", "x"))
    ):
        out.append({"cmd": cmd, "p": "Q", "twist": twist, "eps": 1 - 2 * (k % 2), "raw_constants": k >= 2})
    return out


def _rand_coeff(rng, K):
    if isinstance(K.residue, _lm().PrimeField):
        return rng.randrange(1, K.residue.p)
    return rng.choice((1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4)))


def _rand_laurent(rng, K, lo, hi):
    """A sparse element with 1-3 terms in t^lo..t^hi (zero if they cancel)."""
    return K.from_terms([(rng.randint(lo, hi), _rand_coeff(rng, K)) for _ in range(rng.randint(1, 3))])


class CliDocuments(Workload):
    """Seeded JSON documents run through larmour.cli.main in-process."""

    name = "cli-documents"
    round_size = 20
    window_rounds = 4

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir)
        self.templates = _cli_templates()

    def setup(self):
        L = _lm()
        fields = {}
        for p in PRIMES + ("Q",):
            if p == "Q":
                K = L.random_forms.rational_field()
                alg = L.normalize_presentation(K, K.const(-1), K.const(-1), assume_division=True)
            else:
                K = L.random_forms.finite_field(p)
                alg = L.normalize_presentation(K, K.nonsquare_unit(), K.t())
            fields[p] = (K, alg)
        return {"fields": fields, "docs": 0, "algebras": {}}

    # -- generation --------------------------------------------------------

    def _zeta(self, rng, K, alg, twist):
        if twist == "tau":
            return None
        c = K.monomial(_rand_coeff(rng, K), rng.randint(-1, 2))
        if twist == "x":
            return alg.gen_x().scale(c)
        if twist == "y":
            return alg.gen_y().scale(c)
        # beta*y + gamma*z with constants: its square t*(beta^2 - a*gamma^2)
        # is a monomial, so the twisted involution is computed exactly
        beta, gamma = (K.const(_rand_coeff(rng, K)) for _ in range(2))
        return alg.gen_y().scale(beta) + alg.gen_z().scale(gamma)

    def _sigma(self, zeta):
        if zeta is None:
            return lambda w: w.conj()
        zinv = zeta.inv()
        return lambda w: zeta * w.conj() * zinv

    def _entry(self, rng, K, alg, sigma, eps):
        """w + eps*sigma(w) for a random w: eps-symmetric and exact."""
        while True:
            coords = [_rand_laurent(rng, K, -1, 2) if rng.random() < 0.6 else K.zero() for _ in range(4)]
            w = alg.elem(*coords)
            s = sigma(w)
            u = w + s if eps == 1 else w - s
            if not u.is_possibly_zero():
                return u

    def _unit(self, rng, K, alg):
        c1 = K.const(_rand_coeff(rng, K)) + _rand_laurent(rng, K, 1, 3)
        rest = [_rand_laurent(rng, K, 0, 2) if rng.random() < 0.5 else K.zero() for _ in range(3)]
        return alg.elem(c1, *rest)

    def _constants(self, rng, K, alg, raw):
        if not raw:
            return str(alg.a), str(alg.b)
        # the same algebra, written off its normalized presentation
        k = 2 * rng.randint(1, 2)
        return str(alg.a.shift(k)), str(alg.b.shift(k))

    def round(self, rng, state, index):
        ops = []
        for tpl in self.templates:
            K, alg = state["fields"][tpl["p"]]
            zeta = self._zeta(rng, K, alg, tpl["twist"])
            sigma = self._sigma(zeta)
            eps = tpl["eps"]
            dim = rng.randint(1, 3)
            entries = [self._entry(rng, K, alg, sigma, eps) for _ in range(dim)]
            a, b = self._constants(rng, K, alg, tpl["raw_constants"])
            involution = "tau" if zeta is None else {"tau_zeta": [str(c) for c in zeta.co]}
            family = {"tau": "1", "x": "21", "y": "22", "yz": "22"}[tpl["twist"]]
            if tpl["p"] == "Q":  # unramified: A1 or A2, no twist slot in the label
                family = "A" + family[0]
            else:
                family = "B" + family
            label = family + ("1" if eps == 1 else "2")

            def doc(ents):
                return {
                    "field": {"p": tpl["p"], "precision": 32},
                    "algebra": {"a": a, "b": b},
                    "involution": involution,
                    "eps": eps,
                    "form": [[str(c) for c in u.co] for u in ents],
                }

            meta = {"cmd": tpl["cmd"], "label": label, "entries": entries, "zeta": zeta, "alg": alg, "eps": eps}
            if tpl["cmd"] == "witt-equal":
                if state["docs"] % 2 == 0:
                    second = [sigma(t) * u * t for u in entries for t in [self._unit(rng, K, alg)]]
                    meta["expect_equal"] = True
                else:
                    second = entries + [self._entry(rng, K, alg, sigma, eps)]
                    meta["expect_equal"] = False
                body = {"first": doc(entries), "second": doc(second)}
            else:
                body = doc(entries)
            path = os.path.join(self.workdir, f"doc-{state['docs']:06d}.json")
            with open(path, "w") as fh:
                json.dump(body, fh)
            state["docs"] += 1
            ops.append(Op("cli", ((tpl["cmd"], "--input", path),), meta))
        return ops

    def entries_of(self, op):
        return [tuple(op.meta["entries"])]

    # -- answers -----------------------------------------------------------

    @staticmethod
    def _envelope(answer):
        code, out = answer
        try:
            env = json.loads(out)
        except json.JSONDecodeError:
            return code, None
        return code, env if isinstance(env, dict) else None

    def canonical(self, op, answer):
        code, env = self._envelope(answer)
        if env is None:
            return f"{op.meta['cmd']}:exit{code}:not-json"
        case = env.get("case", {}).get("case")
        routes = env.get("decomposition", {}).get("routes")
        bnd = json.dumps(env.get("boundary"), sort_keys=True)
        return f"{op.meta['cmd']}:exit{code}:{case}:{routes}:{bnd}:{env.get('equal')}"

    def _final_algebra(self, state, env):
        L = _lm()
        desc = env["algebra"]
        key = (desc["p"], desc["a"], desc["b"])
        if key not in state["algebras"]:
            K = state["fields"][desc["p"]][0]
            a = L.parse_laurent(K, desc["a"])
            b = L.parse_laurent(K, desc["b"])
            state["algebras"][key] = L.normalize_presentation(K, a, b, assume_division=desc["p"] == "Q")
        return state["algebras"][key]

    def _check_decomposition(self, op, env, state) -> str | None:
        L = _lm()
        dec = env.get("decomposition")
        if dec is None:
            return "envelope has no decomposition"
        step = 4 // (2 if op.meta["alg"].ramified else 1)
        expect = [0 if half_units(u) % step == 0 else 1 for u in op.meta["entries"]]
        if dec["routes"] != expect:
            return f"routes {dec['routes']} != value parities {expect}"
        if len(dec["h0"]) != expect.count(0) or len(dec["h1"]) != expect.count(1):
            return "h0/h1 sizes disagree with the routes"
        alg = self._final_algebra(state, env)
        K = alg.base
        pattern = L.involutions.SIGN_PATTERNS[env["case"]["sigma"]]

        def coord(text):
            # the envelope writes a coefficient-free element as O(t^k)
            if text.startswith("O(t^") and text.endswith(")"):
                return K.from_terms([], prec=int(text[4:-1]))
            return L.parse_laurent(K, text)

        def quat(coords):
            return alg.elem(*(coord(c) for c in coords))

        for w in dec["witnesses"]:
            t, src, tgt = quat(w["t"]), quat(w["source"]), quat(w["target"])
            resid = L.involutions.apply_pattern(t, pattern) * src * t - tgt
            if half_units(resid) < L.VERIFY_HALF_UNITS:
                return "witness from the envelope does not re-verify"
        return None

    def _library_boundary(self, op, state):
        L = _lm()
        alg, zeta, eps = op.meta["alg"], op.meta["zeta"], op.meta["eps"]
        if zeta is None:
            sigma, change = L.InvolutionDesc.canonical(), L.PresentationChange.identity(alg)
        else:
            sigma, change = L.normalize_involution(alg, zeta)
        new_alg = change.new_algebra
        form = L.HermitianForm(new_alg, sigma, eps, tuple(change.to_new(u) for u in op.meta["entries"]))
        return L.boundary(form, L.classify_case(new_alg, sigma, eps))

    def check(self, ops, answers, state):
        bad = {}
        for i, (op, answer) in enumerate(zip(ops, answers)):
            reason = None
            code, env = self._envelope(answer)
            cmd = op.meta["cmd"]
            if code != 0:
                reason = f"exit code {code}"
            elif env is None:
                reason = "stdout is not one JSON object"
            elif env.get("status") != "ok" or env.get("command") != cmd:
                reason = "envelope status/command mismatch"
            elif env.get("case", {}).get("case") != op.meta["label"]:
                reason = f"case {env.get('case', {}).get('case')} != {op.meta['label']}"
            elif cmd == "witt-equal":
                if env.get("equal") is not op.meta["expect_equal"]:
                    reason = f"equal={env.get('equal')} expected {op.meta['expect_equal']}"
            elif cmd in ("decompose", "residues", "boundary"):
                reason = self._check_decomposition(op, env, state)
                if reason is None and cmd != "decompose":
                    res = env.get("residues") or {}
                    d1 = res.get("d1")
                    if len(res.get("d0", {}).get("entries", [])) != len(env["decomposition"]["h0"]):
                        reason = "d0 size differs from h0"
                    elif d1 is not None and len(d1["entries"]) != len(env["decomposition"]["h1"]):
                        reason = "d1 size differs from h1"
                if reason is None and cmd == "boundary":
                    if env.get("boundary") != boundary_doc(self._library_boundary(op, state)):
                        reason = "CLI boundary differs from library boundary"
            if reason:
                bad[i] = reason
        return bad

    def cleanup(self):
        if os.path.isdir(self.workdir):
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(self.workdir))


def make(name: str, workdir: str) -> Workload:
    if name == "cli-documents":
        return CliDocuments(workdir)
    table = {w.name: w for w in (BoundaryFresh, WittReuse, DeepValuation)}
    if name not in table:
        raise KeyError(name)
    return table[name]()


WORKLOAD_NAMES = ("boundary-fresh", "witt-reuse", "deep-valuation", "cli-documents")
