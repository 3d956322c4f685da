"""Frozen record classes built without generated source.

``dataclasses`` compiles each class's methods from generated source with
``exec``, about 1 ms a class at import. ``record`` builds the same methods
for a frozen value type from closures over its field names:

* ``__init__`` takes the fields positionally or by keyword in declaration
  order, fills omitted ones from the class attribute of the same name, then
  calls ``__post_init__`` when the class defines it;
* ``__repr__`` reads ``Name(a=..., b=...)``;
* with ``eq`` (the default), ``__eq__`` and ``__hash__`` act on the tuple of
  field values; with ``eq=False`` instances compare and hash by identity;
* assigning or deleting an attribute raises ``AttributeError``, so
  ``__post_init__`` normalises fields with ``object.__setattr__``.

The field names, from the class annotations, are ``cls._record_fields``.
"""

from operator import attrgetter


def record(cls=None, *, eq=True):
    """Class decorator: ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: _build(c, eq)
    return _build(cls, eq)


def _build(cls, eq):
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    count = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > count:
            raise TypeError(f"{cls.__qualname__}() takes {count} field "
                            f"arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__qualname__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__qualname__} is frozen: cannot delete {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    if eq:
        get = attrgetter(*names)
        values = (lambda self: (get(self),)) if count == 1 else get

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, fn in methods.items():
        setattr(cls, name, fn)
    cls._record_fields = names
    return cls
