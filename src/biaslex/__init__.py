"""Lexicon-based intersectional bias evaluation for multilingual generation."""

from .identities import (
    Application,
    ApplicationKind,
    Children,
    Gender,
    Identity,
    Language,
    LanguageFamily,
    MaritalStatus,
    PromptMethod,
    Religion,
    StoryLocation,
    enumerate_identities,
)
from .lexicon import (
    BiasLexicon,
    BiasTerm,
    IdentitySelector,
    Provenance,
    expand_lexicon,
    load_lexicon,
    load_seed_lexicon,
)
from .prompts import (
    render_application_prompt,
    render_debias_prompt,
    render_identity_phrase,
)
from .corpus import (
    Corpus,
    Document,
    DocumentKey,
    GenerationRecord,
    build_corpus,
    clean_records,
)
from .scoring import (
    Scope,
    ScoreCell,
    bias_df,
    bias_idf,
    bias_score,
    bias_tf,
    bias_tfidf,
    overall_tfidf,
    top_overall_term,
)
from .aggregate import (
    AverageQuery,
    AverageResult,
    Dimension,
    SeriesAxis,
    average_by_method,
    average_by_subdimension,
    series,
)
from .report import BinClass, ReportFormat, ReportTable, bin_column, build_report, render_table
from .preprocess import preprocess, rule_lemmatize, load_stopwords

__version__ = "0.1.0"
