"""Laboratory for limit learning of ultimately periodic sets from informants.

The pieces compose bottom-up: `upset` is the decidable set algebra,
`evidence` presents targets as labeled streams, `hypothesis` and
`interaction` run learners over them, `restrictions` judges the runs,
`combinators` rebuilds learners with guarantees, `catalog` stocks the
named families and learners, `adversary` plays separation games against
them, and `harness` wires everything into configs, reports and a CLI.
"""

__version__ = "0.1.0"

from .upset import (
    EMPTY,
    NATURALS,
    Relation,
    UPSet,
    combine,
    complement,
    difference,
    from_elements,
    intersection,
    is_subset,
    parse,
    relate,
    union,
)
from .evidence import (
    DataSequence,
    DataSet,
    Example,
    Informant,
    canonical_informant,
    content,
    neg,
    outline,
    pos,
    prefix,
)
from .hypothesis import (
    DEFAULT_DELAY,
    DelaySchedule,
    Hypothesis,
    consistent,
    hypothesis_for,
)
from .interaction import (
    EvalContext,
    HypSequence,
    Learner,
    as_full_information,
    run,
    with_fresh_labels,
)
from .restrictions import (
    RESTRICTION_IDS,
    Verdict,
    check,
    check_all,
    evaluate_site,
    probe_semantic,
    revalidate,
)
from .combinators import (
    COMBINATORS,
    combinator,
    cons_wmon_wrapper,
    dual_wmon_poison,
    patch,
    patched_learner,
    to_set_driven,
)
from .catalog import (
    FAMILY_IDS,
    LANGUAGE_IDS,
    LEARNER_IDS,
    constant_learner,
    family_instances,
    language,
    learner,
    list_catalog,
)
from .adversary import (
    ADVERSARY_IDS,
    Bounds,
    SubprocessOpponent,
    Witness,
    run_adversary,
    verify_witness,
)
from .harness import (
    ExperimentConfig,
    Report,
    demo_scenarios,
    parse_report,
    render_report,
    run_experiment,
    validate_config,
)
