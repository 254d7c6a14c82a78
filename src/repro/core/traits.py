"""The Pie API surface organised into traits (§4.4, Table 1).

Pie groups related API functions into *traits* with supertrait
dependencies, so models can advertise exactly the capabilities they
implement and inferlets can adapt at runtime (``available_traits``).

Two classifications matter for the system:

* ``trait_of_api``    — which trait a function belongs to (extensibility).
* ``api_layer``       — whether a call is handled by the control layer
  directly or forwarded to the inference layer (this determines its
  per-call overhead, Figure 10, and how it is counted in Figure 11).

The full API has 42 functions: 18 dedicated to LLM execution / resource
management in the inference layer and 24 control-layer functions for
runtime management, inter-inferlet communication and I/O.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ReproError

#: trait name -> (supertraits, api functions)
TRAITS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "Core": (
        (),
        (
            "get_arg",
            "send",
            "receive",
            "http_get",
            "http_post",
            "available_models",
            "available_traits",
            "available_adapters",
            "create_queue",
            "synchronize",
            "set_queue_priority",
            "destroy_queue",
            "broadcast",
            "subscribe",
            "unsubscribe",
            "sleep",
            "now",
            "get_model_info",
            "log",
            "kv_page_size",
            "export_kvpage",
            "import_kvpage",
            "release_kvpage_export",
            "list_exports",
        ),
    ),
    "Allocate": (
        ("Core",),
        (
            "alloc_kvpage",
            "dealloc_kvpage",
            "alloc_emb",
            "dealloc_emb",
            "copy_kvpage",
            "copy_emb",
            "clear_kvpage",
        ),
    ),
    "Forward": (
        ("Allocate",),
        (
            "forward",
            "mask_kvpage",
        ),
    ),
    "Adapter": (
        ("Forward",),
        ("forward_with_adapter",),
    ),
    "InputText": (
        ("Allocate", "Forward"),
        ("embed_txt",),
    ),
    "InputImage": (
        ("Allocate", "Forward"),
        ("num_embs_needed", "embed_img"),
    ),
    "Tokenize": (
        ("InputText",),
        ("tokenize", "detokenize", "get_vocabs"),
    ),
    "OutputText": (
        ("Allocate",),
        ("get_next_dist", "get_dists"),
    ),
}

#: API functions handled directly by the control layer (no GPU involvement).
CONTROL_LAYER_APIS = frozenset(TRAITS["Core"][1])

#: All API functions.
ALL_APIS: Tuple[str, ...] = tuple(
    name for _, (_, functions) in sorted(TRAITS.items()) for name in functions
)

#: API functions forwarded to the inference layer.
INFERENCE_LAYER_APIS = frozenset(set(ALL_APIS) - CONTROL_LAYER_APIS)


#: API function -> its trait; reversed, so the first trait listing a name wins.
_TRAIT_OF_API: Dict[str, str] = {
    name: trait for trait, (_, functions) in reversed(TRAITS.items()) for name in functions
}


def trait_of_api(api_name: str) -> str:
    """Return the trait an API function belongs to."""
    try:
        return _TRAIT_OF_API[api_name]
    except KeyError:
        raise ReproError(f"unknown API function {api_name!r}") from None


def api_layer(api_name: str) -> str:
    """Return ``'control'`` or ``'inference'`` for an API function."""
    if api_name in CONTROL_LAYER_APIS:
        return "control"
    if api_name in INFERENCE_LAYER_APIS:
        return "inference"
    raise ReproError(f"unknown API function {api_name!r}")
