(** SARIF 2.1.0 rendering of a lint report, for CI code-scanning upload.

    The document is a single line, byte-identical across runs: rules are the sorted set of rule ids that occur, results
    are sorted by {!Finding.compare}, and allowlisted findings appear with
    a non-empty [suppressions] array (consumers hide them; auditors can
    still see the escape surface). *)

val render : findings:Finding.t list -> suppressed:Finding.t list -> string
