"""Cost-efficient reward interference in networked Prisoner's Dilemma populations."""

__version__ = "0.1.0"
