"""The base of the package's immutable value types."""

import sys


class _Fields(type):
    # The annotated names of a class body, in order, become its __slots__,
    # and their defaults move to _defaults. Each module that defines a value
    # type imports annotations from __future__, which keeps __annotations__
    # in the class namespace on every Python version.
    def __new__(mcs, name, bases, namespace):
        fields = namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        return super().__new__(mcs, name, bases, namespace)


class Value(metaclass=_Fields):
    """A record whose fields a subclass lists as annotated names, with
    defaults, as a dataclass would. A field named ``work`` holds a run's
    counters: a fresh dict unless given, outside equality and hashing.

    Fields are given by position or keyword; a missing or unknown one raises
    TypeError. ``__post_init__`` runs next and may still set a field with
    ``object.__setattr__``; after it, assignment and deletion raise
    AttributeError. Instances are equal when of one class with equal fields;
    an array field equals an array of the same shape, dtype and values, and
    a list or tuple field compares so item by item.
    """

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields, defaults = cls.__slots__, cls._defaults
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
            elif name == "work":
                value = {}
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated {list(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "work")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_equal, self._key(), other._key()))

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _equal(a, b) -> bool:
    """Field equality as a tuple compares, but an array equals only an array
    of its shape, dtype and values, where ``==`` would compare elementwise,
    and a list or tuple compares item by item through this function."""
    if a is b:
        return True
    if type(a) is type(b) and isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_equal, a, b))
    # An array exists only once numpy is loaded, and this module loads none.
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    return a == b
