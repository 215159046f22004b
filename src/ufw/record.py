"""The value semantics the package's small immutable classes share."""

from operator import attrgetter


class Record:
    """An immutable record whose class names its fields, in order, in
    ``_fields``.  Records of one class compare and hash by the tuple of
    their field values and print as ``Name(field=value, …)``.  Each
    subclass writes its own ``__init__``, which sets every field with
    ``object.__setattr__``; any other assignment or deletion raises
    AttributeError.  Records declare no instance dict of their own, so a
    subclass that lists its fields in ``__slots__`` carries none.  Copy and
    pickle rebuild a record by calling its class on the field values, in
    order; a class whose constructor takes other arguments overrides
    ``__reduce__``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of field values, read by one C-level getter per class;
        # attrgetter of a single name returns the bare value, not a tuple
        (first, *rest) = cls._fields
        if rest:
            cls._values = property(attrgetter(first, *rest))
        else:
            cls._values = property(lambda record: (getattr(record, first),))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        # the default protocol would restore slots through the refusing
        # __setattr__
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)
