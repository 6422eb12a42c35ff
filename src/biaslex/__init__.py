"""Lexicon-based intersectional bias evaluation for multilingual generation."""

__version__ = "0.1.0"
