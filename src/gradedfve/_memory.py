"""Physical-memory guard for arrays whose size a caller chooses."""

from __future__ import annotations

import os


def physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(need: int, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` when ``need`` bytes for ``what`` exceed physical memory,
    so that a request too large for the machine fails before it allocates."""
    have = physical_memory()
    if need > have:
        raise error(
            f"{what} needs {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )
