"""Value classes: ==, hash and repr over named fields, as dataclasses
would make them, without importing dataclasses or generating code.

A class lists its constructor's fields in order and writes its own
__init__.  == holds only between instances of one class.  A Value is
mutable and unhashable.  A Frozen one hashes its compared fields and
refuses assignment, so its __init__ hands the fields to _init (a
slotted class sets its slots itself).
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, fields="", hidden="", uncompared="", **kwargs):
        """fields: the fields in constructor order; hidden: those the repr
        leaves out; uncompared: those == and hash leave out."""
        super().__init_subclass__(**kwargs)
        if not fields:      # Frozen itself
            return
        fields, hidden, uncompared = fields.split(), hidden.split(), uncompared.split()
        cls._fields = tuple(fields)
        cls._shown = tuple(f for f in fields if f not in hidden)
        cls._compared = attrgetter(*(f for f in fields if f not in uncompared))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Value):
    __slots__ = ()

    def _init(self, *values):
        """Fill the fields in order, past __setattr__.  Not through
        vars(self): a materialized __dict__ makes every later attribute
        read about three times slower."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._compared(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
