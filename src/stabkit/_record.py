"""Base of the record classes. Records are plain classes, not dataclasses, so
that importing stabkit generates no code: every CLI call pays the import."""


class Record:
    """Read-only `_fields` (also the `__slots__`), set in order by each class's
    `__init__` through `_fill`; same-class equality and hashing by the field
    tuple, and the dataclass repr text."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
