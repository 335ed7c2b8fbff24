"""What the program asks of its host: the CPUs it may run on, and names that
are safe as file names.

Both the command-line shell and the layers below it need these, so they
live apart from either, in a module that imports nothing of the package.
"""

from __future__ import annotations

import os


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
