#!/usr/bin/env python
"""Enforce the one-way layering of the analysis service architecture.

The dependency direction is: ``repro.service`` (application) ->
``repro.core`` -> ``repro.analysis`` / ``repro.circuit`` (domain).
Each named rule below pins one edge of that graph:

``domain-no-service``
    The domain layers (``repro.circuit``, ``repro.analysis``,
    ``repro.core``) and the declarative :mod:`repro.variation` module
    must never import the service package - not even lazily inside a
    function - or the layering silently collapses into a cycle.  One
    file keeps two allowed imports: ``repro/core/montecarlo.py`` runs
    its shards through ``repro.service.shards`` (the generative shard
    protocol) and ``repro.service.jobs`` (the supervisor).  Any other
    service import there fails, as does any in another file under
    ``repro/core``, new ones included.  The plan is to move the shard
    protocol *below* the service, and with it these two imports, once
    perfbench stops wrapping ``repro.service.shards`` by module path.

``session-no-internals``
    ``repro/service/session.py`` is pure cache policy: it must not
    import ``repro.core`` or ``repro.analysis`` directly.  All
    numerical imports belong to the engine registry
    (``repro/service/engines.py``), so adding an analysis kind never
    touches the session.

``net-no-internals``
    The network front-end (``repro/service/net.py``,
    ``repro/service/client.py`` and the fault-tolerant dispatch layer
    ``repro/service/resilience.py``) speaks only the service-layer
    surfaces (requests, shards, serialize, session, jobs) - never
    ``repro.core`` / ``repro.analysis`` / ``repro.circuit`` directly.
    Everything that crosses the wire must round-trip through the
    closed serialization registry, and a transport that reaches into
    the numerical layers would bypass it.

``examples-use-facade``
    Examples import :mod:`repro.api` - the closed, versioned public
    surface - and nothing deeper.  The examples double as the
    documentation of the supported API, so an example importing a deep
    module would document an unsupported entry point.

``no-scipy-stats``
    Nothing under ``src/repro`` imports :mod:`scipy.stats`, in any
    spelling and not even lazily.  Loading it (with the scipy.optimize,
    spatial and ndimage modules it pulls in) costs more than the
    paper's whole PSS+LPTV call in a cold process; :mod:`repro.stats`
    computes the same values bit for bit from :mod:`scipy.special`.

Run from the repository root::

    python tools/check_import_layering.py [--only RULE]

Exits non-zero listing every violation.  The unit test in
``tests/test_service.py`` runs the same check, so tier-1 catches
violations before CI does.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Rule:
    """One forbidden-import edge: *patterns* may not appear in *paths*.

    *paths* are repo-relative and may name directories (scanned
    recursively for ``*.py``) or single files; *allow* pairs a single
    repo-relative file inside them with a pattern of the lines it may
    still contain.
    """

    name: str
    paths: tuple[str, ...]
    patterns: tuple[re.Pattern, ...]
    description: str
    allow: tuple[tuple[str, re.Pattern], ...] = ()

    def files(self, root: Path):
        for rel in self.paths:
            path = root / rel
            found = [path] if path.is_file() else sorted(path.rglob("*.py"))
            yield from found

    def violations(self, root: Path) -> list[str]:
        found = []
        for path in self.files(root):
            allowed = [p for rel, p in self.allow if root / rel == path]
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if (any(p.match(line) for p in self.patterns)
                        and not any(p.match(line) for p in allowed)):
                    found.append(
                        f"{path.relative_to(root)}:{lineno}: "
                        f"[{self.name}] {line.strip()}")
        return found


#: Any spelling of an import of the service package, top-level or
#: inside a function: absolute, or relative (..service / .service).
_SERVICE_PATTERNS = (
    re.compile(r"^\s*(from|import)\s+repro\.service\b"),
    re.compile(r"^\s*from\s+\.\.?service\b"),
    re.compile(r"^\s*from\s+\.\.?\s+import\s+.*\bservice\b"),
)

#: Imports of the numerical layers from within the session module.
_INTERNALS_PATTERNS = (
    re.compile(r"^\s*(from|import)\s+repro\.(core|analysis|circuit)\b"),
    re.compile(r"^\s*from\s+\.\.(core|analysis|circuit)\b"),
    re.compile(r"^\s*from\s+\.\.\s+import\s+.*\b(core|analysis)\b"),
)

#: Any repro import that is not the ``repro.api`` facade (plain
#: ``import repro`` / ``import repro.x`` included; ``import repro.api``
#: and ``from repro.api import ...`` excluded).
_NON_FACADE_PATTERNS = (
    re.compile(r"^\s*from\s+repro(?!\.api\b)(\.|\s)"),
    re.compile(r"^\s*import\s+repro(?!\.api\b)"),
)

#: Every spelling of a scipy.stats import: ``import scipy.stats``
#: (aliased or among other modules), ``from scipy.stats[...] import``
#: and ``from scipy import stats`` (alone or in a name list).
_SCIPY_STATS_PATTERNS = (
    re.compile(r"^\s*import\s+(.*[\s,])?scipy\.stats\b"),
    re.compile(r"^\s*from\s+scipy\.stats\b"),
    re.compile(r"^\s*from\s+scipy\s+import\s+.*\bstats\b"),
)

RULES = (
    Rule(
        name="domain-no-service",
        paths=("src/repro/circuit", "src/repro/analysis",
               "src/repro/core", "src/repro/variation.py"),
        patterns=_SERVICE_PATTERNS,
        description="domain layer (and repro.variation) importing "
                    "repro.service",
        allow=(("src/repro/core/montecarlo.py", re.compile(
            r"^\s*from\s+(\.\.|repro\.)service\.(shards|jobs)\s+import\b")),),
    ),
    Rule(
        name="session-no-internals",
        paths=("src/repro/service/session.py",),
        patterns=_INTERNALS_PATTERNS,
        description="session.py importing analysis internals (these "
                    "belong to the engine registry)",
    ),
    Rule(
        name="net-no-internals",
        paths=("src/repro/service/net.py",
               "src/repro/service/client.py",
               "src/repro/service/resilience.py"),
        patterns=_INTERNALS_PATTERNS,
        description="network front-end importing numerical internals "
                    "(everything on the wire goes through the "
                    "service-layer surfaces)",
    ),
    Rule(
        name="examples-use-facade",
        paths=("examples",),
        patterns=_NON_FACADE_PATTERNS,
        description="example importing a deep module instead of the "
                    "repro.api facade",
    ),
    Rule(
        name="no-scipy-stats",
        paths=("src/repro",),
        patterns=_SCIPY_STATS_PATTERNS,
        description="package importing scipy.stats (repro.stats "
                    "computes the same values from scipy.special)",
    ),
)


def violations(root: Path, only: str | None = None) -> list[str]:
    found = []
    for rule in RULES:
        if only is not None and rule.name != only:
            continue
        found.extend(rule.violations(root))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=[r.name for r in RULES], default=None,
        help="check a single rule instead of all of them")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    found = violations(root, only=args.only)
    if found:
        print("import layering violations:")
        for v in found:
            print("  " + v)
        for rule in RULES:
            if any(f"[{rule.name}]" in v for v in found):
                print(f"rule {rule.name}: {rule.description}")
        return 1
    checked = [r.name for r in RULES if args.only in (None, r.name)]
    print(f"import layering OK ({', '.join(checked)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
