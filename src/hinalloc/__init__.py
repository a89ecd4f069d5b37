"""Expertise allocation over author-paper-topic networks."""

__version__ = "0.1.0"
