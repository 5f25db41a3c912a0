"""Bundled example machines, shipped as .vpt files next to this module."""

from importlib import resources

from ..vpt_core import Vpt, parse_vpt


def names() -> list[str]:
    found = []
    for entry in resources.files(__name__).iterdir():
        if entry.name.endswith(".vpt"):
            found.append(entry.name[:-4])
    return sorted(found)


def load(name: str) -> Vpt:
    candidate = resources.files(__name__) / f"{name}.vpt"
    if not candidate.is_file():
        raise KeyError(f"no bundled machine named {name!r}; "
                       f"available: {', '.join(names())}")
    return parse_vpt(candidate.read_text(encoding="utf-8"))

