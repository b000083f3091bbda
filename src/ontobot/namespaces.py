"""Namespace tables for the vocabularies the engine knows about.

A ``Namespace`` turns attribute access into interned IRI terms, so
``SOMA.Grasping`` is the term ``<http://www.ease-crc.org/ont/SOMA.owl#Grasping>``.
"""

from __future__ import annotations

from ontobot.graph import Term, iri


class Namespace:
    """A base IRI that mints terms via attribute access."""

    def __init__(self, base: str):
        self.base = base

    def __getattr__(self, name: str) -> Term:
        if name.startswith("_"):
            raise AttributeError(name)
        return iri(self.base + name)

    def __contains__(self, term: object) -> bool:
        return isinstance(term, Term) and term.kind == "iri" and term.value.startswith(self.base)

    def __repr__(self) -> str:
        return f"Namespace({self.base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
OBOT = Namespace("https://w3id.org/onto-bot#")
DUL = Namespace("http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#")
SOMA = Namespace("http://www.ease-crc.org/ont/SOMA.owl#")
PKO = Namespace("https://w3id.org/pko#")
PPLAN = Namespace("http://purl.org/net/p-plan#")
ROS = Namespace("http://data.mksmart.org/onto-ros/class#")
PROV = Namespace("http://www.w3.org/ns/prov#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
EX = Namespace("https://example.org/")

#: Prefix table matching the declarations the fixture files use.
STANDARD_PREFIXES: dict[str, str] = {
    "": EX.base,
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD.base,
    "obot": OBOT.base,
    "dul": DUL.base,
    "soma": SOMA.base,
    "pko": PKO.base,
    "pplan": PPLAN.base,
    "ros": ROS.base,
    "prov": PROV.base,
    "foaf": FOAF.base,
}
