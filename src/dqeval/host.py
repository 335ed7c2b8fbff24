"""What the program asks of its host: the CPUs it may run on, names that are
safe as file names, output files that are replaced whole, and the immutable
record that every layer's values are built from.

Both the command-line shell and the layers below it need these, so they
live apart from either, in a module that imports nothing of the package.
"""

from __future__ import annotations

import os
from pathlib import Path

_MISSING = object()


class _RecordType(type):
    """Makes a Record subclass's annotated names its fields, in order after
    any inherited ones, and its class-level values of them their defaults."""

    def __new__(mcls, name, bases, namespace):
        own = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in own if f in namespace}
        namespace["__slots__"] = own
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = getattr(cls, "_fields", ()) + own
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._shown = tuple(f for f in cls._fields if f not in cls._unshown)
        # each slot's own setter, which bypasses Record.__setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        return cls


class Record(metaclass=_RecordType):
    """An immutable, slotted value with named fields, defined at a fraction
    of the cost of the standard library's frozen record classes.

    A subclass states its fields as annotations, with defaults as class-level
    values: `name: str` or `nullable: bool = False`. Instances take their
    fields positionally or by keyword, call `__post_init__` to check them,
    refuse to set or delete an attribute, equal only instances of the same
    class with equal fields, hash alike when they are equal, print as
    `Name(field=value, ...)`, copy with changes through `replace`, and
    pickle. A subclass may leave fields out of `==` and the hash through
    `_uncompared`, and out of the repr through `_unshown`.
    """

    _uncompared = ()  # not annotated: class attributes, not fields
    _unshown = ()

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call with keywords, defaults or both."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        defaults = cls._defaults
        for name in fields[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(value)
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return values

    def __post_init__(self) -> None:
        """Check the fields; a subclass raises ValueError for values it refuses."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed, checked like a new instance."""
        values = [changes.pop(f) if f in changes else getattr(self, f)
                  for f in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return type(self)(*values)

    def __reduce__(self):
        """Pickle as a call of the class with the field values: the default
        would restore the slots through __setattr__, which refuses."""
        return type(self), tuple([getattr(self, f) for f in self._fields])


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
    The temporary file is removed when the write fails; an OSError then
    names path, not the temporary file."""
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as file:
            file.write(text)
        os.replace(temporary, path)
    except BaseException as exc:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:  # path's directory is not one: there is no temporary
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
