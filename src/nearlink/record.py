"""Frozen records: one base class in place of per-class generated methods.

A :class:`Record` subclass declares its fields as annotations with a plain
default or a :class:`Field`, read once when the class is made, inherited ones
first. The base shares one constructor (positional or keyword, then
``__post_init__``), a frozen ``__setattr__``, and value equality, or identity
where the class says ``eq=False``."""

MISSING = type("MISSING", (), {"__repr__": lambda self: "MISSING"})()


class Field:
    """A declared field: its ``default`` (:data:`MISSING`: the field is
    required) and the ``metadata`` its readers look up."""

    def __init__(self, default=MISSING, metadata=None):
        self.default, self.metadata = default, metadata or {}


class Record:
    _fields = {}  # name -> Field, in constructor order

    def __init_subclass__(cls, eq=True):
        cls._fields = dict(cls._fields)
        for name in cls.__dict__.get("__annotations__", {}):
            decl = cls.__dict__.get(name, MISSING)
            cls._fields[name] = decl if isinstance(decl, Field) else Field(decl)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        values = {**dict(zip(self._fields, args)), **kwargs}
        if len(values) < len(args) + len(kwargs) or not values.keys() <= self._fields.keys():
            raise TypeError(f"{type(self).__qualname__} got extra or repeated fields")
        for name in self._fields.keys() - values.keys():
            if values.setdefault(name, self._fields[name].default) is MISSING:
                raise TypeError(f"{type(self).__qualname__} needs field {name!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen record")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(pairs)})"


def replace(record, **changes):
    """A copy of ``record`` built again with ``changes`` to some of its fields."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
