"""The package's public surface: every exported name resolves, and every
README section a docstring names exists."""

import ast
import re
from pathlib import Path

import skelact

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in skelact.__all__ if not hasattr(skelact, name)]
    assert not missing, f"skelact.__all__ lists names the package lacks: {missing}"
    assert len(set(skelact.__all__)) == len(skelact.__all__)


def test_every_readme_section_a_docstring_names_is_a_readme_heading():
    headings = set(re.findall(r"^#{1,6} +(.+?) *$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M))
    named, stale = 0, []
    for module in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = " ".join((ast.get_docstring(node) or "").split())
            # a docstring names a section as README "<heading>", one heading a mention
            mentions = doc.count("README")
            sections = re.findall(r'README "([^"]+)"', doc)
            where = f"{module.relative_to(ROOT)}:{getattr(node, 'name', '<module>')}"
            if mentions != len(sections):
                stale.append(f"{where} mentions README without a quoted section")
            stale += [f"{where} names {s!r}" for s in sections if s not in headings]
            named += len(sections)
    assert named, "no docstring names a README section"
    assert not stale, f"README has no such heading: {stale}"
