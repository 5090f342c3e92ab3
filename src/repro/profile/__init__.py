"""Profile data model: flat, context-sensitive, serialization, trimming."""

from .context import (ContextKey, ContextTrie, Frame, base_context,
                      caller_frame, extend_context, format_context, is_prefix,
                      leaf_function, make_context, parent_context,
                      parse_context)
from .errors import (BinaryMismatchError, ProfileError, ProfileParseError,
                     ProfileStaleError)
from .function_samples import ATTR_SHOULD_INLINE, FunctionSamples
from .profiles import ContextProfile, FlatProfile
from .stats import profile_stats
from .text_format import (dump_context_profile, dump_flat_profile,
                          load_context_profile, load_flat_profile,
                          profile_size_bytes)
from .trimming import trim_cold_contexts

__all__ = [
    "ATTR_SHOULD_INLINE", "BinaryMismatchError", "ContextKey",
    "ContextProfile", "ContextTrie", "FlatProfile", "Frame",
    "FunctionSamples", "ProfileError", "ProfileParseError",
    "ProfileStaleError", "base_context", "caller_frame",
    "dump_context_profile", "dump_flat_profile", "extend_context",
    "format_context", "is_prefix", "leaf_function", "load_context_profile",
    "load_flat_profile", "make_context", "parent_context", "parse_context",
    "profile_size_bytes", "profile_stats", "trim_cold_contexts",
]
