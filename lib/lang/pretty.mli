(** Canonical pretty-printer; [Parser.parse_stmt (Pretty.stmt s)] round-trips
    to an equal AST (property-tested). *)

val expr : Ast.expr -> string
val stmt : Ast.stmt -> string
