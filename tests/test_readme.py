"""Every dotted code reference in README.md names something that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import headswap
from headswap.diffusion import ColumnClasses, EmpiricalNoisePredictor, NoiseSchedule
from headswap.hid import RunConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    info.name: importlib.import_module(f"headswap.{info.name}")
    for info in pkgutil.iter_modules(headswap.__path__)
}
OWNERS = {
    **MODULES,
    "EmpiricalNoisePredictor": EmpiricalNoisePredictor,
    "ColumnClasses": ColumnClasses,
    "NoiseSchedule": NoiseSchedule,
    "RunConfig": RunConfig,
}
FILE_NAME = re.compile(r"[\w/]+\.(py|jsonl|ppm|pgm|tsv|cfg|md|json)")


def readme_references() -> set[tuple[str, str]]:
    """(owner, name) of every inline code span in README.md that starts
    with ``owner.name``, for a headswap module or a class in OWNERS."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.match(r"(\w+)\.(\w+)", span)
        if match and match[1] in OWNERS and not FILE_NAME.fullmatch(span):
            refs.add((match[1], match[2]))
    return refs


def test_every_readme_reference_resolves():
    refs = readme_references()
    assert len(refs) > 10  # the scan itself still finds the references
    missing = sorted(f"{owner}.{name}" for owner, name in refs if not hasattr(OWNERS[owner], name))
    assert missing == []
