"""What the program asks of its host: the CPUs it may run on, names that are
safe as file names, and output files that are replaced whole.

Both the command-line shell and the layers below it need these, so they
live apart from either, in a module that imports nothing of the package.
"""

from __future__ import annotations

import os
from pathlib import Path


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plain_name(name: str) -> bool:
    """Whether an entity name is one plain file-name component, so that the
    files named after it (`<name>.csv`, `<name>.<property>.manifest.json`)
    stay inside their directory: not empty, `.` or `..`, and without `/`,
    `\\` or NUL."""
    return (name not in ("", ".", "..")
            and "/" not in name and "\\" not in name and "\0" not in name)


def write_atomic(path: Path, text: str) -> None:
    """Write text to path as UTF-8, through a temporary file in the same
    directory that then replaces path: a reader, or a run that fails or is
    killed partway, sees the old file or the new one, never part of either.
    The temporary file is removed when the write fails."""
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as file:
            file.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
