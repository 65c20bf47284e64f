"""Desk-scale computational laboratory for boundary dynamics of
hyperbolic isometries of Euclidean buildings, modelled on SL_n(Q_p)
at finite precision.

Every record the lab returns or reads -- a certificate, a report, a
verdict, a parsed config -- is a class that derives from ``_Record`` and
declares its fields as annotated names in its body, each with an
optional default.  A record is an immutable value with slots:

- it is built by position, by keyword or both, and a field left out
  takes its default (a field without one is required);
- its fields are read as attributes, and assigning or deleting one
  raises ``AttributeError``;
- ``==`` holds between two records of the same class whose fields are
  equal, and never between records of different classes;
- ``repr`` reads ``Name(field=value, ...)``, and ``_replace(**changes)``
  returns a copy with the named fields changed.

A record is not a tuple: it has no iteration, indexing, length or hash.
Each record class costs the program's start-up one small class, with no
tuple class and no compiled constructor of its own.
"""

from operator import attrgetter

__version__ = "0.1.0"

_set = object.__setattr__


class _RecordType(type):
    """Makes the annotated names of a record's body its slots, and their
    values in the body their defaults."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        cls = super().__new__(mcls, name, bases, dict(ns, __slots__=fields))
        cls._fields, cls._field_defaults = fields, defaults
        if fields:
            cls._values = attrgetter(*fields)
        return cls


class _Record(metaclass=_RecordType):
    """The base of every record; the module docstring states the contract."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**cls._field_defaults, **given, **kwargs}
            if (len(args) > len(fields) or not given.keys().isdisjoint(kwargs)
                    or values.keys() != set(fields)):
                raise TypeError("%s takes the fields %s; got %d by position and %s"
                                % (cls.__name__, ", ".join(fields), len(args),
                                   ", ".join(kwargs) or "none by keyword"))
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def _replace(self, **changes):
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
