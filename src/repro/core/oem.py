"""The Object Exchange Model (OEM): the leaf-value variant with identities.

Section 2 describes the second flavour of the model, used by Tsimmis and
Lorel: *"leaf nodes are labeled with data, internal nodes are not labeled
with meaningful data, and edges are labeled only with symbols"*::

    type base = int | string | ...
    type tree = base | set(symbol * tree)

and notes that *"in OEM, object identities are used as node labels and
place-holders to define trees"*.  An :class:`OemObject` is either *atomic*
(it holds one base value) or *complex* (it holds a set of ``symbol -> oid``
pairs); the oid is observable only through equality, exactly the paper's
constraint on node identifiers.  Cyclic data is expressed naturally because
complex objects refer to children by oid.

OEM is the exchange substrate of the Tsimmis project ("an internal data
structure for exchange of data between DBMSs"); :mod:`repro.core.convert`
maps it to and from the UnQL edge-labeled model, and :mod:`repro.lorel`
queries it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .graph import Edge
from .labels import Label, sym

__all__ = ["Oid", "OemObject", "OemDatabase", "OemError", "ATOMIC_TYPES"]

Oid = int
AtomicValue = Union[int, float, str, bool]

#: Python types allowed as atomic OEM values.
ATOMIC_TYPES = (int, float, str, bool)


class OemError(ValueError):
    """Raised on malformed OEM structures (dangling oids, bad values...)."""


@dataclass
class OemObject:
    """One OEM object: ``(oid, value)`` where value is atomic or complex.

    ``children`` is the list of ``(symbol, oid)`` pairs of a complex object;
    ``atom`` is the base value of an atomic object.  Exactly one of the two
    is meaningful, discriminated by :attr:`is_atomic` -- the tagged-union
    "switch" that makes the data self-describing.
    """

    oid: Oid
    atom: AtomicValue | None = None
    children: list[tuple[str, Oid]] = field(default_factory=list)

    @property
    def is_atomic(self) -> bool:
        return self.atom is not None

    @property
    def is_complex(self) -> bool:
        return self.atom is None

    def labels(self) -> set[str]:
        """The distinct child labels of a complex object."""
        return {label for label, _ in self.children}


class OemDatabase:
    """A collection of OEM objects with one or more named entry points.

    Entry names play the role of the "root" of section 2's model: queries
    traverse forward from a named object.
    """

    def __init__(self) -> None:
        self._objects: dict[Oid, OemObject] = {}
        self._names: dict[str, Oid] = {}
        self._next_oid: Oid = 1
        self._version = 0

    @property
    def version(self) -> int:
        """A counter bumped by every structural mutation.

        The Lorel pushdown indexes (:mod:`repro.planner.pushdown`) record
        the version they were built against and rebuild on mismatch, so a
        mutated database never answers from a stale candidate set.
        """
        return self._version

    # -- construction ---------------------------------------------------------

    def new_atomic(self, value: AtomicValue) -> Oid:
        """Create an atomic object holding ``value`` and return its oid."""
        if not isinstance(value, ATOMIC_TYPES):
            raise OemError(f"not an atomic OEM value: {value!r}")
        oid = self._next_oid
        self._next_oid += 1
        self._objects[oid] = OemObject(oid, atom=value)
        self._version += 1
        return oid

    def new_complex(self) -> Oid:
        """Create an empty complex object and return its oid."""
        oid = self._next_oid
        self._next_oid += 1
        self._objects[oid] = OemObject(oid)
        self._version += 1
        return oid

    def add_child(self, parent: Oid, label: str, child: Oid) -> None:
        """Attach ``child`` under ``parent`` with attribute name ``label``."""
        pobj = self.get(parent)
        if pobj.is_atomic:
            raise OemError(f"oid {parent} is atomic; it cannot have children")
        if child not in self._objects:
            raise OemError(f"unknown child oid {child}")
        pobj.children.append((label, child))
        self._version += 1

    def set_name(self, name: str, oid: Oid) -> None:
        """Register ``oid`` as a named database entry point."""
        if oid not in self._objects:
            raise OemError(f"cannot name unknown oid {oid}")
        self._names[name] = oid
        self._version += 1

    # -- inspection -----------------------------------------------------------

    def get(self, oid: Oid) -> OemObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise OemError(f"unknown oid {oid}") from None

    def atom_of(self, oid: Oid) -> "AtomicValue | None":
        """The value of an atomic object, ``None`` for a complex one."""
        return self.get(oid).atom

    def edges_from(self, oid: Oid) -> list[Edge]:
        """An object's children as symbol edges: the read API the product
        walk (:class:`~repro.automata.product.RpqStepper`) steps through."""
        return [Edge(oid, sym(label), child) for label, child in self.get(oid).children]

    def total_out_degree(self, oids: "Iterable[Oid]") -> int:
        """Sum of child counts over ``oids`` (each counted as given), as
        :meth:`repro.core.graph.Graph.total_out_degree` sums out-degrees:
        a profiled walk derives its edge count from it after the fact."""
        objects = self._objects
        return sum(len(objects[oid].children) for oid in oids)

    def lookup_name(self, name: str) -> Oid:
        try:
            return self._names[name]
        except KeyError:
            raise OemError(f"no database entry named {name!r}") from None

    @property
    def names(self) -> dict[str, Oid]:
        return dict(self._names)

    def oids(self) -> Iterator[Oid]:
        return iter(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def children(self, oid: Oid, label: str | None = None) -> Iterator[Oid]:
        """Child oids of a complex object, optionally filtered by label."""
        obj = self.get(oid)
        for lab, child in obj.children:
            if label is None or lab == label:
                yield child

    def reachable(self, start: Oid) -> set[Oid]:
        """All oids reachable from ``start`` by forward traversal."""
        seen = {start}
        stack = [start]
        while stack:
            oid = stack.pop()
            obj = self.get(oid)
            for _, child in obj.children:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def validate(self) -> None:
        """Check referential integrity: every child oid must exist."""
        for obj in self._objects.values():
            for label, child in obj.children:
                if child not in self._objects:
                    raise OemError(
                        f"oid {obj.oid} has dangling child {child} under {label!r}"
                    )

    # -- bulk loading -----------------------------------------------------------

    @classmethod
    def from_obj(cls, obj: object, name: str = "DB") -> "OemDatabase":
        """Load JSON-shaped data as an OEM database rooted at ``name``."""
        db = cls()
        db.set_name(name, db._load(obj))
        return db

    def _load(self, obj: object) -> Oid:
        if isinstance(obj, ATOMIC_TYPES):
            return self.new_atomic(obj)
        if obj is None:
            return self.new_complex()
        if isinstance(obj, dict):
            oid = self.new_complex()
            for key, value in obj.items():
                if not isinstance(key, str):
                    raise OemError("OEM edge labels must be symbols (strings)")
                # a Label is a tuple, not a collection: _load refuses it
                if isinstance(value, (list, tuple)) and not isinstance(value, Label):
                    for item in value:
                        self.add_child(oid, key, self._load(item))
                else:
                    self.add_child(oid, key, self._load(value))
            return oid
        if isinstance(obj, (list, tuple)) and not isinstance(obj, Label):
            oid = self.new_complex()
            for item in obj:
                self.add_child(oid, "item", self._load(item))
            return oid
        raise OemError(f"cannot load {type(obj).__name__} into OEM")
