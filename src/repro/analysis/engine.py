"""Core of the static-analysis suite: findings, rules, waivers, baseline.

The engine parses every ``.py`` file under the analyzed paths once, hands
the ASTs to a registry of pluggable rules, and filters the raw findings
through two suppression layers:

- **inline waivers** — a ``# noqa: RULE1,RULE2`` (or bare ``# noqa``)
  comment on the flagged line;
- **baseline file** — a checked-in JSON list of ``(rule, path, symbol)``
  triples for accepted pre-existing findings.  Matching by enclosing
  symbol (function/class qualname) instead of line number keeps baseline
  entries stable under unrelated edits.

Rules subclass :class:`Rule` (per-module) or :class:`ProjectRule`
(whole-tree, e.g. interprocedural may-suspend summaries) and self-register via
the :func:`register` decorator; importing :mod:`repro.analysis.rules`
populates the registry.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Optional

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# noqa`` / ``# noqa: DET01, INT01`` inline waiver comments.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Za-z0-9_,\s-]+))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str              # as given to the analyzer (repo-relative in CI)
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR
    #: Qualname of the enclosing function/class ("" at module level);
    #: the baseline matches on this, not on the line number.
    symbol: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def baseline_key(self) -> tuple:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "symbol": self.symbol,
        }


class ModuleInfo:
    """A parsed module plus the lookup tables rules need."""

    def __init__(self, path: Path, display_path: str, source: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        #: line number -> set of waived rule ids (None entry = waive all).
        self.waivers: dict[int, Optional[set]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self.waivers[lineno] = None  # bare noqa: waive everything
            else:
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                existing = self.waivers.get(lineno)
                if existing is None and lineno in self.waivers:
                    continue  # already waive-all
                self.waivers[lineno] = (existing or set()) | ids

    # -- tree helpers -----------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the innermost enclosing def/class of ``node``."""
        names: list[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                names.append(current.name)
            current = self._parents.get(current)
        return ".".join(reversed(names))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    def is_waived(self, finding: Finding) -> bool:
        if finding.line not in self.waivers:
            return False
        rules = self.waivers[finding.line]
        return rules is None or finding.rule in rules

    def functions(self) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def is_generator_function(func: ast.AST) -> bool:
    """Whether ``func`` contains a yield of its own (not from nested defs)."""
    for node in walk_function_body(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def is_sim_process(func: ast.AST) -> bool:
    """Whether a generator function looks like a kernel-stepped process.

    A sim process has at least one yield that could produce an Event — a
    call, name or attribute expression, or a ``yield from`` delegation.
    Pure value generators (host-side tooling yielding tuples/literals)
    are never handed to the kernel and are exempt from the ATM/INT
    process rules.
    """
    for node in walk_function_body(func):
        if isinstance(node, ast.YieldFrom):
            return True
        if isinstance(node, ast.Yield) and isinstance(
                node.value, (ast.Call, ast.Name, ast.Attribute, ast.IfExp,
                             ast.Await)):
            return True
    return False


def in_layers(module: "ModuleInfo", layers) -> bool:
    """Whether ``module`` lives under a directory named in ``layers``."""
    return not layers.isdisjoint(PurePosixPath(module.display_path).parts)


def walk_function_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, skipping nested def/class/lambda."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------
class Rule:
    """Base class for a per-module rule."""

    id: str = "XX00"
    name: str = "unnamed"
    severity: str = SEVERITY_ERROR
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    # -- helpers for subclasses ------------------------------------------
    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                severity: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity or self.severity,
            symbol=module.qualname(node),
        )


class ProjectRule(Rule):
    """A rule that needs the whole analyzed tree at once."""

    def check_project(self, modules: list[ModuleInfo]) -> Iterable[Finding]:
        return ()


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule (one instance) to the registry."""
    instance = rule_cls()
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    _REGISTRY[instance.id] = instance
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registered rules, keyed by id (populated by importing .rules)."""
    from repro.analysis import rules as _rules  # noqa - import side effect

    del _rules
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------
#: Placeholder written for entries --write-baseline could not justify;
#: the tier-1 baseline test rejects it, forcing a human-written reason.
BASELINE_FIXME_REASON = "FIXME: justify this suppression"


class Baseline:
    """Checked-in suppressions for accepted findings.

    Every entry carries a one-line ``reason`` saying *why* the finding
    is accepted rather than fixed — the waiver policy (DESIGN.md §11)
    makes an unexplained suppression itself a defect, enforced by the
    tier-1 baseline test.
    """

    def __init__(self, entries: Iterable[dict] = ()):
        self._entries: dict[tuple, str] = {}
        for entry in entries:
            key = (entry["rule"], entry["path"], entry.get("symbol", ""))
            self._entries[key] = str(entry.get("reason", "")).strip()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> dict:
        """``(rule, path, symbol) -> reason`` for every suppression."""
        return dict(self._entries)

    def suppresses(self, finding: Finding) -> bool:
        return finding.baseline_key() in self._entries

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text())
        return cls(data.get("suppressions", []))

    @staticmethod
    def dump(findings: Iterable[Finding], path: Path,
             previous: Optional["Baseline"] = None) -> None:
        """Write ``findings`` as the new baseline.

        Reasons written for a key in ``previous`` are carried over;
        genuinely new entries get a FIXME placeholder that the tier-1
        baseline test rejects until a human justifies the suppression.
        """
        keys = sorted({f.baseline_key() for f in findings})
        carried = previous.entries if previous is not None else {}
        payload = {
            "comment": (
                "Accepted findings of repro.analysis; entries match on "
                "(rule, path, enclosing symbol), not line numbers, and "
                "every entry must carry a one-line reason. Regenerate "
                "with: python -m repro.analysis --write-baseline"
            ),
            "suppressions": [
                {"rule": rule, "path": path_, "symbol": symbol,
                 "reason": carried.get((rule, path_, symbol))
                 or BASELINE_FIXME_REASON}
                for rule, path_, symbol in keys
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    findings: list = field(default_factory=list)     # surviving findings
    waived: int = 0                                  # dropped by # noqa
    baselined: int = 0                               # dropped by baseline
    files: int = 0
    parse_errors: list = field(default_factory=list)  # (path, message)

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    def exit_code(self, strict: bool = False) -> int:
        if self.parse_errors or self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


class Analyzer:
    """Runs the rule registry over a set of files/directories."""

    def __init__(
        self,
        rules: Optional[Iterable[Rule]] = None,
        baseline: Optional[Baseline] = None,
        select: Optional[Iterable[str]] = None,
    ):
        registry = all_rules()
        chosen = list(rules) if rules is not None else list(registry.values())
        if select is not None:
            wanted = set(select)
            unknown = wanted - {rule.id for rule in chosen}
            if unknown:
                raise ValueError(f"unknown rule ids: {sorted(unknown)}")
            chosen = [rule for rule in chosen if rule.id in wanted]
        self.rules = sorted(chosen, key=lambda rule: rule.id)
        self.baseline = baseline or Baseline()

    # -- file collection --------------------------------------------------
    @staticmethod
    def collect_files(paths: Iterable[Path]) -> list[Path]:
        files: list[Path] = []
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files.extend(sorted(
                    p for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                    and not any(part.endswith(".egg-info") for part in p.parts)
                ))
            elif path.suffix == ".py":
                files.append(path)
        # De-duplicate, preserving deterministic order.
        seen: set = set()
        unique = []
        for file in files:
            resolved = file.resolve()
            if resolved not in seen:
                seen.add(resolved)
                unique.append(file)
        return unique

    def load_modules(self, paths: Iterable[Path],
                     report: AnalysisReport) -> list[ModuleInfo]:
        modules = []
        for file in self.collect_files(paths):
            display = self._display_path(file)
            try:
                source = file.read_text()
                modules.append(ModuleInfo(file, display, source))
            except (SyntaxError, UnicodeDecodeError) as exc:
                report.parse_errors.append((display, str(exc)))
        return modules

    @staticmethod
    def _display_path(file: Path) -> str:
        """Repo-relative when possible, so baselines are machine-portable."""
        resolved = file.resolve()
        for ancestor in resolved.parents:
            if (ancestor / "pyproject.toml").exists():
                return resolved.relative_to(ancestor).as_posix()
        return file.as_posix()

    # -- running ----------------------------------------------------------
    def run(self, paths: Iterable[Path]) -> AnalysisReport:
        report = AnalysisReport()
        modules = self.load_modules(paths, report)
        report.files = len(modules)
        raw: list[tuple[ModuleInfo, Finding]] = []
        for module in modules:
            for rule in self.rules:
                for finding in rule.check_module(module):
                    raw.append((module, finding))
        by_path = {module.display_path: module for module in modules}
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                for finding in rule.check_project(modules):
                    raw.append((by_path.get(finding.path), finding))
        for module, finding in raw:
            if module is not None and module.is_waived(finding):
                report.waived += 1
            elif self.baseline.suppresses(finding):
                report.baselined += 1
            else:
                report.findings.append(finding)
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return report
