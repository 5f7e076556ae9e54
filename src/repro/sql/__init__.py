"""SQL front end: lexer, AST and parser."""
