"""The determinism lint's rule registry and the repo-specific rules.

Every rule encodes one reproducibility contract (see
``docs/architecture.md``, "Determinism contracts"):

========  ====================  ====================================================
Rule id   Name                  Contract
========  ====================  ====================================================
R001      rng-discipline        All randomness flows through the injected
                                :class:`~repro.sim.rng.RandomStreams` streams;
                                ``sim/rng.py`` is the only module that may import
                                :mod:`random`, and ``numpy.random`` is banned.
R002      no-wall-clock         Deterministic modules never read the ambient wall
                                clock (``time.time``/``monotonic``/``perf_counter``,
                                ``datetime.now`` ...); simulated time comes from the
                                kernel and the hosts' hardware-clock models.
R003      ordered-iteration     No iteration over unordered collections (sets,
                                ``dict.values()``/``.keys()`` of non-literal
                                receivers) in ``sim/``, ``apps/``, ``core/`` where
                                the order could feed the RNG or the timeline; wrap
                                the iterable in ``sorted(...)`` or suppress with a
                                reason when insertion order is provably fixed.
R004      fault-token-grammar   Every string literal that looks like a
                                ``network:<kind>[...]`` token, or is passed to
                                ``NetworkFaultSpec.from_token`` /
                                ``parse_fault_specification``, must parse against
                                the real grammar — a typo'd scenario fails lint,
                                not a campaign.
R005      record-format-sync    A module declaring ``RECORD_FORMAT_VERSION`` must
                                keep ``READABLE_FORMAT_VERSIONS`` covering every
                                version ``1..current``: bumping the writer without
                                keeping old records decodable breaks resume.
R006      no-bare-sleep         No bare ``time.sleep`` / ``asyncio.sleep``
                                anywhere in the library: a real-time wait is a
                                deliberate act (the pool's retry backoff) and
                                carries an inline suppression with its reason
                                (benchmarks and devtools are allowlisted).
========  ====================  ====================================================

Rules register themselves in :data:`REGISTRY` via :func:`register`, so a
new contract is one subclass away; the CLI and the tests enumerate the
registry rather than hard-coding ids.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.visitor import FileContext, ImportAliases, Rule

#: rule id -> rule class, in registration order.
REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if rule_class.rule_id in REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule_class.rule_id!r}")
    REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def rules_for(ctx: FileContext, select: frozenset[str] | None = None) -> list[Rule]:
    """Instantiate every registered (and selected) rule that applies to ``ctx``."""
    active: list[Rule] = []
    for rule_id in sorted(REGISTRY):
        if select is not None and rule_id not in select:
            continue
        rule = REGISTRY[rule_id](ctx)
        if rule.applies():
            active.append(rule)
    return active


# ---------------------------------------------------------------------------
# R001 rng-discipline
# ---------------------------------------------------------------------------


@register
class RngDiscipline(Rule):
    """All randomness must flow through the injected ``RandomStreams``."""

    rule_id = "R001"
    name = "rng-discipline"
    description = (
        "no 'import random' / numpy.random outside sim/rng.py: draw from the "
        "injected RandomStreams stream so campaigns stay bit-reproducible"
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._aliases = ImportAliases()

    def applies(self) -> bool:
        if self.ctx.in_directories("devtools"):
            return False
        return not self.ctx.path_ends_with("sim", "rng.py")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root == "random":
                self.report(
                    node,
                    "ambient 'import random' — only sim/rng.py may; draw from "
                    "the experiment's injected RandomStreams stream instead",
                )
            elif alias.name == "numpy.random" or alias.name.startswith("numpy.random."):
                self.report(
                    node,
                    "'import numpy.random' bypasses the seeded RandomStreams "
                    "discipline — derive a stream from the experiment seed instead",
                )
            if root == "numpy":
                self._aliases.bind_import(alias)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:  # relative imports never reach stdlib random/numpy
            return
        if module == "random" or module.startswith("random."):
            self.report(
                node,
                "'from random import ...' — only sim/rng.py may import random; "
                "draw from the injected RandomStreams stream instead",
            )
        elif module == "numpy.random" or module.startswith("numpy.random."):
            self.report(
                node,
                "'from numpy.random import ...' bypasses the seeded "
                "RandomStreams discipline",
            )
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.report(
                        node,
                        "'from numpy import random' bypasses the seeded "
                        "RandomStreams discipline",
                    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Only the innermost `<numpy>.random` attribute is checked so one
        # chain such as np.random.default_rng yields one finding.
        chain = self._aliases.resolve(node)
        if chain == "numpy.random":
            self.report(
                node,
                "numpy.random use bypasses the seeded RandomStreams discipline",
            )


# ---------------------------------------------------------------------------
# R002 no-wall-clock
# ---------------------------------------------------------------------------

_BANNED_CLOCK_CHAINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_BANNED_TIME_IMPORTS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)


@register
class NoWallClock(Rule):
    """Deterministic modules must not read the ambient wall clock."""

    rule_id = "R002"
    name = "no-wall-clock"
    description = (
        "no time.time/monotonic/perf_counter or datetime.now in deterministic "
        "modules: read simulated time from the kernel or a host clock "
        "(benchmarks and devtools are allowlisted)"
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._aliases = ImportAliases()

    def applies(self) -> bool:
        return not self.ctx.in_directories("devtools", "benchmarks")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".", 1)[0] in ("time", "datetime"):
                self._aliases.bind_import(alias)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            return
        for alias in node.names:
            if module == "time" and alias.name in _BANNED_TIME_IMPORTS:
                self.report(
                    node,
                    f"wall-clock read 'from time import {alias.name}' — "
                    "deterministic code must use the simulated clocks",
                )
            elif module == "datetime" and alias.name in ("datetime", "date"):
                self._aliases.bind(alias.asname or alias.name, f"datetime.{alias.name}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = self._aliases.resolve(node)
        if chain in _BANNED_CLOCK_CHAINS:
            self.report(
                node,
                f"wall-clock read '{chain}' — deterministic code must use the "
                "simulated clocks (kernel.now / host.read_clock)",
            )


# ---------------------------------------------------------------------------
# R003 ordered-iteration
# ---------------------------------------------------------------------------

#: Consumers whose result does not depend on iteration order; iterables
#: (including generator expressions) passed straight into one of these are
#: exempt.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)

_SET_BUILDERS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference"})
_MAPPING_VIEWS = frozenset({"values", "keys"})


@register
class OrderedIteration(Rule):
    """No order-sensitive iteration over unordered collections.

    Heuristic and deliberately syntactic: it flags ``for``/comprehension
    iteration whose iterable is *textually* a set (a ``set()`` /
    ``frozenset()`` call, a set display with non-constant elements, a set
    comprehension, a set-algebra method call) or a mapping view
    (``.values()`` / ``.keys()`` on a non-literal receiver).  Iteration
    over plain names is not resolved — the golden equivalence tests
    remain the backstop for those.  Wrapping the iterable in an
    order-insensitive consumer (``sorted``, ``any``, ``len``, ...) is
    always accepted; where insertion order is provably deterministic,
    suppress with a reason instead of reshuffling the hot path.
    """

    rule_id = "R003"
    name = "ordered-iteration"
    description = (
        "no iteration over sets or dict views in sim/, apps/, core/ where "
        "order can feed the RNG or the timeline; use sorted(...) or suppress "
        "with a reason"
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._exempt: set[int] = set()

    def applies(self) -> bool:
        if self.ctx.in_directories("devtools"):
            return False
        return self.ctx.in_directories("sim", "apps", "core")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE_CONSUMERS:
            for argument in node.args:
                self._exempt.add(id(argument))
                if isinstance(argument, ast.GeneratorExp):
                    for comprehension in argument.generators:
                        self._exempt.add(id(comprehension.iter))

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)

    def _check_iterable(self, iterable: ast.expr) -> None:
        if id(iterable) in self._exempt:
            return
        if isinstance(iterable, ast.SetComp):
            self.report(iterable, self._message("a set comprehension"))
        elif isinstance(iterable, ast.Set):
            if not all(isinstance(element, ast.Constant) for element in iterable.elts):
                self.report(iterable, self._message("a non-literal set display"))
        elif isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id in _SET_BUILDERS:
                self.report(iterable, self._message(f"a {func.id}(...) result"))
            elif isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                self.report(iterable, self._message(f"a set .{func.attr}(...) result"))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _MAPPING_VIEWS
                and not isinstance(func.value, ast.Dict)
            ):
                self.report(
                    iterable,
                    self._message(f"a .{func.attr}() view of a non-literal mapping"),
                )

    @staticmethod
    def _message(what: str) -> str:
        return (
            f"order-sensitive iteration over {what} — the order can feed the "
            "RNG or the timeline; iterate sorted(...) or suppress with a "
            "reason if insertion order is provably deterministic"
        )


# ---------------------------------------------------------------------------
# R004 fault-token-grammar
# ---------------------------------------------------------------------------


@register
class FaultTokenGrammar(Rule):
    """Fault-spec string literals must parse against the real grammars.

    Rather than re-implementing the ``network:<kind>[...]`` and
    crash-fault grammars (which would drift), the rule feeds every
    relevant string literal to the canonical parsers —
    :meth:`repro.sim.topology.NetworkFaultSpec.from_token` and
    :func:`repro.core.specs.fault_spec.parse_fault_specification` — and
    turns any rejection into a finding at the literal's position.
    """

    rule_id = "R004"
    name = "fault-token-grammar"
    description = (
        "every 'network:<kind>[...]' string literal and every literal passed "
        "to NetworkFaultSpec.from_token / parse_fault_specification must "
        "parse, so a typo'd scenario fails lint instead of a campaign"
    )

    def applies(self) -> bool:
        return not self.ctx.in_directories("devtools")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee not in ("from_token", "parse_fault_specification") or not node.args:
            return
        argument = node.args[0]
        if not (isinstance(argument, ast.Constant) and isinstance(argument.value, str)):
            return
        if callee == "from_token":
            self._check_token(argument, argument.value)
        else:
            self._check_specification(argument, argument.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        # Any literal that *looks like* a network fault token must parse,
        # wherever it appears (a scenario table, a test, a config default).
        # The bare "network:" prefix string used by the parsers themselves
        # and documentation docstrings are not tokens.
        if not (isinstance(node.value, str) and node.value.startswith("network:")):
            return
        if node.value == "network:" or id(node) in self.ctx.docstring_ids:
            return
        self._check_token(node, node.value)

    def _check_token(self, node: ast.AST, text: str) -> None:
        try:
            from repro.sim.topology import NetworkFaultSpec
        except ImportError:  # pragma: no cover - repro always importable in-repo
            return
        try:
            NetworkFaultSpec.from_token(text)
        except Exception as error:
            self.report(node, f"invalid network fault token {text!r}: {error}")

    def _check_specification(self, node: ast.AST, text: str) -> None:
        try:
            from repro.core.specs.fault_spec import parse_fault_specification
        except ImportError:  # pragma: no cover - repro always importable in-repo
            return
        try:
            parse_fault_specification(text)
        except Exception as error:
            self.report(node, f"invalid fault specification literal: {error}")


# ---------------------------------------------------------------------------
# R005 record-format-sync
# ---------------------------------------------------------------------------


@register
class RecordFormatSync(Rule):
    """Readers must keep decoding every record format version ever written.

    The contract holds per *pair* of constants: a module declaring a
    format-version constant from :data:`VERSION_PAIRS` must also declare
    its readable-set partner covering every version ``1..current``.
    Version constants outside the pairs (``MANIFEST_FORMAT_VERSION``,
    whose reader is deliberately single-version) are not the rule's
    business.
    """

    rule_id = "R005"
    name = "record-format-sync"
    description = (
        "a module declaring a record/columnar format-version constant must "
        "keep its READABLE_*_VERSIONS partner covering every version "
        "1..current, so stores written by older code stay resumable"
    )

    #: (version constant, readable-set constant) pairs the rule enforces.
    VERSION_PAIRS = (
        ("RECORD_FORMAT_VERSION", "READABLE_FORMAT_VERSIONS"),
        ("COLUMNAR_FORMAT_VERSION", "READABLE_COLUMNAR_VERSIONS"),
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._assignments: dict[str, tuple[ast.AST, ast.expr]] = {}

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._assignments[target.id] = (node, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._assignments[node.target.id] = (node, node.value)

    def finish(self) -> None:
        for version_name, readable_name in self.VERSION_PAIRS:
            self._check_pair(version_name, readable_name)

    def _check_pair(self, version_name: str, readable_name: str) -> None:
        version_entry = self._assignments.get(version_name)
        if version_entry is None:
            return  # this pair's format is not declared here
        version_node, version_value = version_entry
        if not (isinstance(version_value, ast.Constant) and isinstance(version_value.value, int)):
            self.report(
                version_node,
                f"{version_name} must be an integer literal so readers "
                "and the lint can reason about it statically",
            )
            return
        current = version_value.value
        readable_entry = self._assignments.get(readable_name)
        if readable_entry is None:
            self.report(
                version_node,
                f"module declares {version_name} but no {readable_name} — "
                "readers cannot prove which versions stay decodable",
            )
            return
        readable_node, readable_value = readable_entry
        readable = self._evaluate_version_set(readable_value, version_name, current)
        if readable is None:
            self.report(
                readable_node,
                f"{readable_name} must be a literal set/frozenset of "
                f"integer versions ({version_name} may appear by name)",
            )
            return
        missing = [version for version in range(1, current + 1) if version not in readable]
        if missing:
            self.report(
                readable_node,
                f"reader drops format version(s) {missing}: every declared "
                f"version <= {version_name} ({current}) must remain "
                "decodable or old stores silently stop resuming",
            )

    @staticmethod
    def _evaluate_version_set(
        expr: ast.expr, version_name: str, current: int
    ) -> frozenset[int] | None:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        if not isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
            return None
        versions: set[int] = set()
        for element in expr.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, int):
                versions.add(element.value)
            elif isinstance(element, ast.Name) and element.id == version_name:
                versions.add(current)
            else:
                return None
        return frozenset(versions)


# ---------------------------------------------------------------------------
# R006 no-bare-sleep
# ---------------------------------------------------------------------------

_BANNED_SLEEP_CHAINS = frozenset({"time.sleep", "asyncio.sleep"})


@register
class NoBareSleep(Rule):
    """The library never blocks on real time without saying why.

    Experiments run on simulated time, so a real sleep can only pace
    something outside the simulation — today, the process pool's backoff
    before it rebuilds after a lost worker.  Each such wait must carry an
    inline ``# repro-lint: disable=R006 <reason>``, which keeps every
    real-time dependency of ``src/repro`` listed, with its reason, in one
    grep.  Wall-clock *reads* are R002's business.
    """

    rule_id = "R006"
    name = "no-bare-sleep"
    description = (
        "no bare time.sleep/asyncio.sleep in the library: a deliberate "
        "real-time wait carries an inline suppression with its reason "
        "(benchmarks and devtools are allowlisted)"
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._aliases = ImportAliases()

    def applies(self) -> bool:
        return not self.ctx.in_directories("devtools", "benchmarks")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".", 1)[0] in ("time", "asyncio"):
                self._aliases.bind_import(alias)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            return
        if module in ("time", "asyncio"):
            for alias in node.names:
                if alias.name == "sleep":
                    self.report(
                        node,
                        f"bare 'from {module} import sleep' — a real-time "
                        "wait needs '# repro-lint: disable=R006 <reason>'",
                    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = self._aliases.resolve(node)
        if chain in _BANNED_SLEEP_CHAINS:
            self.report(
                node,
                f"bare '{chain}' — a real-time wait needs "
                "'# repro-lint: disable=R006 <reason>'",
            )
