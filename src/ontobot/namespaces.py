"""Namespaces of the vocabularies the engine's code names terms in.

A ``Namespace`` turns attribute access into interned IRI terms, so
``SOMA.Grasping`` is the term ``<http://www.ease-crc.org/ont/SOMA.owl#Grasping>``.
A term is made on its first read and kept on the instance, so every later
read of the same name is a plain attribute hit.
"""

from __future__ import annotations

from ontobot.graph import IRI, Term, iri


class Namespace:
    """A base IRI that mints terms via attribute access."""

    def __init__(self, base: str):
        self.base = base

    def __getattr__(self, name: str) -> Term:
        # Reached only for a name not yet kept. The term is interned, so threads that race here store one object.
        if name.startswith("_"):
            raise AttributeError(name)
        term = self.__dict__[name] = iri(self.base + name)
        return term

    def __contains__(self, term: object) -> bool:
        return isinstance(term, Term) and term.kind == IRI and term.value.startswith(self.base)

    def __repr__(self) -> str:
        return f"Namespace({self.base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OBOT = Namespace("https://w3id.org/onto-bot#")
DUL = Namespace("http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#")
SOMA = Namespace("http://www.ease-crc.org/ont/SOMA.owl#")
PKO = Namespace("https://w3id.org/pko#")
PPLAN = Namespace("http://purl.org/net/p-plan#")
ROS = Namespace("http://data.mksmart.org/onto-ros/class#")
PROV = Namespace("http://www.w3.org/ns/prov#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
EX = Namespace("https://example.org/")
