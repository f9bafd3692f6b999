package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parser turns SQL text into statements.
type Parser struct {
	lex  *Lexer
	tok  Token // current token
	peek *Token
}

// ParseError reports a syntax error with position information.
type ParseError struct {
	Msg  string
	Line int
	Col  int
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a single statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.isOp(";") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == TokEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.tok.Kind != TokEOF && !p.isOp(";") {
			return nil, p.errf("expected ';' or end of input, found %s", p.tok)
		}
	}
}

func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Line: p.tok.Line, Col: p.tok.Col}
}

func (p *Parser) next() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) peekTok() (Token, error) {
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Val == kw
}

// isWord matches a keyword or an unreserved identifier, case-insensitively.
func (p *Parser) isWord(w string) bool {
	if p.tok.Kind == TokKeyword {
		return p.tok.Val == strings.ToUpper(w)
	}
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Val, w)
}

func (p *Parser) isOp(op string) bool {
	return p.tok.Kind == TokOp && p.tok.Val == op
}

func (p *Parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return p.errf("expected %s, found %s", kw, p.tok)
	}
	return p.next()
}

func (p *Parser) expectWord(w string) error {
	if !p.isWord(w) {
		return p.errf("expected %s, found %s", strings.ToUpper(w), p.tok)
	}
	return p.next()
}

func (p *Parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.errf("expected %q, found %s", op, p.tok)
	}
	return p.next()
}

func (p *Parser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		// Allow a handful of keywords in identifier position (column names
		// like "count" are common in workloads).
		if p.tok.Kind == TokKeyword {
			v := strings.ToLower(p.tok.Val)
			if err := p.next(); err != nil {
				return "", err
			}
			return v, nil
		}
		return "", p.errf("expected identifier, found %s", p.tok)
	}
	v := p.tok.Val
	if err := p.next(); err != nil {
		return "", err
	}
	return v, nil
}

// parseStatement dispatches on the leading keyword.
func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("ALTER"):
		return p.parseAlter()
	case p.isKw("BEGIN") || p.isWord("START"):
		if err := p.next(); err != nil {
			return nil, err
		}
		// Optional TRANSACTION / WORK noise words.
		for p.isWord("TRANSACTION") || p.isWord("WORK") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return &BeginStmt{}, nil
	case p.isKw("COMMIT"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return &CommitStmt{}, nil
	case p.isKw("ROLLBACK") || p.isKw("ABORT"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return &RollbackStmt{}, nil
	case p.isKw("LOCK"):
		return p.parseLock()
	case p.isKw("VACUUM"):
		return p.parseVacuum()
	case p.isWord("ANALYZE"): // unreserved: matches the bare identifier
		if err := p.next(); err != nil {
			return nil, err
		}
		st := &AnalyzeStmt{}
		if p.tok.Kind == TokIdent {
			st.Table = p.tok.Val
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.isKw("TRUNCATE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isKw("TABLE") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &TruncateStmt{Name: name}, nil
	case p.isKw("EXPLAIN"):
		if err := p.next(); err != nil {
			return nil, err
		}
		analyze := false
		if p.isWord("ANALYZE") {
			analyze = true
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Target: inner, Analyze: analyze}, nil
	case p.isWord("FAULT"): // unreserved: matches the bare identifier
		return p.parseFault()
	case p.isWord("SHOW"): // unreserved: matches the bare identifier
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ShowStmt{Name: name}, nil
	case p.isKw("SET"):
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.isOp("=") || p.isWord("TO") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		val := p.tok.Val
		if err := p.next(); err != nil {
			return nil, err
		}
		// Negative values (SET log_min_duration -1) lex as two tokens.
		if val == "-" {
			val += p.tok.Val
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return &SetStmt{Name: name, Value: val}, nil
	default:
		return nil, p.errf("unexpected token %s at statement start", p.tok)
	}
}

// ---------- SELECT ----------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.isKw("DISTINCT") {
		s.Distinct = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	for {
		if p.isOp("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.isKw("AS") {
				if err := p.next(); err != nil {
					return nil, err
				}
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.tok.Kind == TokIdent {
				item.Alias = p.tok.Val
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			s.Items = append(s.Items, item)
		}
		if !p.isOp(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.isKw("FROM") {
		if err := p.next(); err != nil {
			return nil, err
		}
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.isKw("WHERE") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.isKw("GROUP") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKw("HAVING") {
		if err := p.next(); err != nil {
			return nil, err
		}
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.isKw("ORDER") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.isKw("DESC") {
				item.Desc = true
				if err := p.next(); err != nil {
					return nil, err
				}
			} else if p.isKw("ASC") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKw("LIMIT") {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.isKw("OFFSET") {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	if p.isKw("FOR") {
		if err := p.next(); err != nil {
			return nil, err
		}
		switch {
		case p.isKw("UPDATE"):
			s.Lock = LockForUpdate
		case p.isKw("SHARE"):
			s.Lock = LockForShare
		default:
			return nil, p.errf("expected UPDATE or SHARE after FOR")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.isKw("JOIN") || p.isKw("INNER"):
			jt = JoinInner
			if p.isKw("INNER") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		case p.isKw("LEFT"):
			jt = JoinLeft
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.isKw("OUTER") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		case p.isKw("CROSS"):
			jt = JoinCross
			if err := p.next(); err != nil {
				return nil, err
			}
		case p.isOp(","):
			// Comma join = cross join; the WHERE clause supplies predicates.
			if err := p.next(); err != nil {
				return nil, err
			}
			right, err := p.parsePrimaryTableRef()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Type: JoinCross, Left: left, Right: right}
			continue
		default:
			return left, nil
		}
		if err := p.expectKw("JOIN"); err != nil {
			return nil, err
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Type: jt, Left: left, Right: right}
		switch {
		case p.isKw("ON"):
			if err := p.next(); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = cond
		case p.isKw("USING"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				j.Using = append(j.Using, c)
				if !p.isOp(",") {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		default:
			if jt != JoinCross {
				return nil, p.errf("expected ON or USING after JOIN")
			}
		}
		left = j
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	if p.isOp("(") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			alias := ""
			if p.isKw("AS") {
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if p.tok.Kind == TokIdent {
				alias = p.tok.Val
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			return &SubqueryRef{Select: sub, Alias: alias}, nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &BaseTable{Name: name}
	if p.isKw("AS") {
		if err := p.next(); err != nil {
			return nil, err
		}
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t.Alias = a
	} else if p.tok.Kind == TokIdent {
		t.Alias = p.tok.Val
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ---------- INSERT / UPDATE / DELETE ----------

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.isOp("(") {
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKw("VALUES"):
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.isOp(",") {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	case p.isKw("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: val})
		if !p.isOp(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.isKw("WHERE") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: table}
	if p.isKw("WHERE") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

// ---------- CREATE / DROP / ALTER ----------

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.isKw("TABLE"):
		return p.parseCreateTable()
	case p.isKw("INDEX"):
		return p.parseCreateIndex()
	case p.isKw("RESOURCE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("GROUP"); err != nil {
			return nil, err
		}
		return p.parseResourceGroupBody()
	case p.isKw("ROLE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st := &CreateRoleStmt{Name: name}
		if p.isKw("RESOURCE") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectKw("GROUP"); err != nil {
				return nil, err
			}
			g, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.ResourceGroup = g
		}
		return st, nil
	default:
		return nil, p.errf("unsupported CREATE target %s", p.tok)
	}
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{Name: name, Table: table}
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, c)
		if !p.isOp(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseResourceGroupBody() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &CreateResourceGroupStmt{Name: name}
	if err := p.expectWord("WITH"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		opt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		var val string
		switch p.tok.Kind {
		case TokInt, TokFloat, TokIdent, TokString:
			val = p.tok.Val
		default:
			return nil, p.errf("expected option value, found %s", p.tok)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		// CPUSET=0-3 lexes as int '0' op '-' int '3'; reassemble ranges.
		for p.isOp("-") {
			if err := p.next(); err != nil {
				return nil, err
			}
			val += "-" + p.tok.Val
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		st.Options = append(st.Options, ResourceGroupOption{
			Name: strings.ToUpper(opt), Value: val,
		})
		if !p.isOp(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func kindFromTypeName(name string) (types.Kind, bool) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint", "serial", "int4", "int8":
		return types.KindInt, true
	case "float", "float8", "double", "real", "numeric", "decimal":
		return types.KindFloat, true
	case "text", "varchar", "char", "character", "string":
		return types.KindText, true
	case "bool", "boolean":
		return types.KindBool, true
	case "date", "timestamp":
		return types.KindDate, true
	default:
		return 0, false
	}
}

func (p *Parser) parseTypeName() (types.Kind, error) {
	name, err := p.expectIdent()
	if err != nil {
		return 0, err
	}
	k, ok := kindFromTypeName(name)
	if !ok {
		return 0, p.errf("unknown type %q", name)
	}
	// Optional (n) or (p, s) suffix, and "double precision"/"character varying".
	if strings.EqualFold(name, "double") && p.isWord("precision") {
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if strings.EqualFold(name, "character") && p.isWord("varying") {
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if p.isOp("(") {
		for !p.isOp(")") {
			if p.tok.Kind == TokEOF {
				return 0, p.errf("unterminated type modifier of %s", name)
			}
			if err := p.next(); err != nil {
				return 0, err
			}
		}
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	return k, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Storage: StorageHeap}
	if p.isWord("IF") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectWord("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		// Swallow column constraints we accept but don't enforce.
		for p.isKw("PRIMARY") || p.isKw("NOT") || p.isKw("DEFAULT") || p.isWord("UNIQUE") {
			switch {
			case p.isKw("PRIMARY"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
			case p.isKw("NOT"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
			case p.isKw("DEFAULT"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if _, err := p.parseExpr(); err != nil {
					return nil, err
				}
			default:
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
		st.Columns = append(st.Columns, ColumnDef{Name: col, Kind: kind})
		if !p.isOp(",") {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	// Trailing clauses in any order: WITH (storage), DISTRIBUTED ..., PARTITION BY ...
	for {
		switch {
		case p.isWord("WITH"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				opt, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				val := ""
				if p.isOp("=") {
					if err := p.next(); err != nil {
						return nil, err
					}
					val = p.tok.Val
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if strings.EqualFold(opt, "appendonly") || strings.EqualFold(opt, "appendoptimized") {
					if strings.EqualFold(val, "true") {
						st.Storage = StorageAORow
					}
				}
				if strings.EqualFold(opt, "orientation") && strings.EqualFold(val, "column") {
					st.Storage = StorageAOColumn
				}
				if !p.isOp(",") {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		case p.isKw("DISTRIBUTED"):
			if err := p.next(); err != nil {
				return nil, err
			}
			switch {
			case p.isKw("BY"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					c, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					st.DistKeys = append(st.DistKeys, c)
					if !p.isOp(",") {
						break
					}
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				st.Distribution = DistributeHash
			case p.isKw("RANDOMLY"):
				if err := p.next(); err != nil {
					return nil, err
				}
				st.Distribution = DistributeRandomly
			case p.isKw("REPLICATED"):
				if err := p.next(); err != nil {
					return nil, err
				}
				st.Distribution = DistributeReplicated
			default:
				return nil, p.errf("expected BY, RANDOMLY or REPLICATED after DISTRIBUTED")
			}
		case p.isKw("PARTITION"):
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectKw("BY"); err != nil {
				return nil, err
			}
			if err := p.expectKw("RANGE"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.PartitionBy = col
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				pd, err := p.parsePartitionDef(st.Storage)
				if err != nil {
					return nil, err
				}
				st.Partitions = append(st.Partitions, pd)
				if !p.isOp(",") {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		default:
			return st, nil
		}
	}
}

// parsePartitionDef parses:
//
//	PARTITION name START (lit) END (lit) [WITH (appendonly=..., orientation=...)]
func (p *Parser) parsePartitionDef(defaultStorage StorageKind) (PartitionDef, error) {
	var pd PartitionDef
	pd.Storage = defaultStorage
	if err := p.expectKw("PARTITION"); err != nil {
		return pd, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return pd, err
	}
	pd.Name = name
	if err := p.expectWord("START"); err != nil {
		return pd, err
	}
	if err := p.expectOp("("); err != nil {
		return pd, err
	}
	lo, err := p.parseLiteralValue()
	if err != nil {
		return pd, err
	}
	pd.Start = lo
	if err := p.expectOp(")"); err != nil {
		return pd, err
	}
	if err := p.expectKw("END"); err != nil {
		return pd, err
	}
	if err := p.expectOp("("); err != nil {
		return pd, err
	}
	hi, err := p.parseLiteralValue()
	if err != nil {
		return pd, err
	}
	pd.End = hi
	if err := p.expectOp(")"); err != nil {
		return pd, err
	}
	if p.isWord("WITH") {
		if err := p.next(); err != nil {
			return pd, err
		}
		if err := p.expectOp("("); err != nil {
			return pd, err
		}
		for {
			opt, err := p.expectIdent()
			if err != nil {
				return pd, err
			}
			val := ""
			if p.isOp("=") {
				if err := p.next(); err != nil {
					return pd, err
				}
				val = p.tok.Val
				if err := p.next(); err != nil {
					return pd, err
				}
			}
			if strings.EqualFold(opt, "appendonly") && strings.EqualFold(val, "true") {
				if pd.Storage == StorageHeap {
					pd.Storage = StorageAORow
				}
			}
			if strings.EqualFold(opt, "orientation") && strings.EqualFold(val, "column") {
				pd.Storage = StorageAOColumn
			}
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return pd, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return pd, err
		}
	}
	return pd, nil
}

func (p *Parser) parseLiteralValue() (types.Datum, error) {
	neg := false
	if p.isOp("-") {
		neg = true
		if err := p.next(); err != nil {
			return types.Null, err
		}
	}
	switch p.tok.Kind {
	case TokInt:
		v, err := strconv.ParseInt(p.tok.Val, 10, 64)
		if err != nil {
			return types.Null, p.errf("bad integer %q", p.tok.Val)
		}
		if neg {
			v = -v
		}
		if err := p.next(); err != nil {
			return types.Null, err
		}
		return types.NewInt(v), nil
	case TokFloat:
		v, err := strconv.ParseFloat(p.tok.Val, 64)
		if err != nil {
			return types.Null, p.errf("bad float %q", p.tok.Val)
		}
		if neg {
			v = -v
		}
		if err := p.next(); err != nil {
			return types.Null, err
		}
		return types.NewFloat(v), nil
	case TokString:
		s := p.tok.Val
		if err := p.next(); err != nil {
			return types.Null, err
		}
		// Dates in partition bounds are common: try date first.
		if d, err := types.NewText(s).CastTo(types.KindDate); err == nil && len(s) == 10 {
			return d, nil
		}
		return types.NewText(s), nil
	default:
		return types.Null, p.errf("expected literal, found %s", p.tok)
	}
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.isKw("TABLE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		st := &DropTableStmt{}
		if p.isWord("IF") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectWord("EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.isKw("RESOURCE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKw("GROUP"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropResourceGroupStmt{Name: name}, nil
	default:
		return nil, p.errf("unsupported DROP target %s", p.tok)
	}
}

func (p *Parser) parseAlter() (Statement, error) {
	if err := p.expectKw("ALTER"); err != nil {
		return nil, err
	}
	if p.isWord("SYSTEM") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectWord("EXPAND"); err != nil {
			return nil, err
		}
		if !p.isWord("TO") && !p.isKw("TO") {
			return nil, p.errf("expected TO after ALTER SYSTEM EXPAND, found %s", p.tok)
		}
		n, err := p.parseFaultInt("EXPAND TO")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, p.errf("ALTER SYSTEM EXPAND TO needs a positive segment count")
		}
		return &AlterSystemExpandStmt{Target: n}, nil
	}
	if !p.isKw("ROLE") {
		return nil, p.errf("only ALTER ROLE and ALTER SYSTEM EXPAND are supported")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("RESOURCE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("GROUP"); err != nil {
		return nil, err
	}
	g, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &AlterRoleStmt{Name: name, ResourceGroup: g}, nil
}

func (p *Parser) parseLock() (Statement, error) {
	if err := p.expectKw("LOCK"); err != nil {
		return nil, err
	}
	if p.isKw("TABLE") {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &LockStmt{Table: name}
	if p.isKw("IN") {
		if err := p.next(); err != nil {
			return nil, err
		}
		var words []string
		for !p.isWord("MODE") {
			if p.tok.Kind == TokEOF {
				return nil, p.errf("expected MODE, found %s", p.tok)
			}
			words = append(words, strings.ToUpper(p.tok.Val))
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if err := p.expectWord("MODE"); err != nil {
			return nil, err
		}
		st.Mode = strings.Join(words, " ")
	}
	return st, nil
}

func (p *Parser) parseVacuum() (Statement, error) {
	if err := p.expectKw("VACUUM"); err != nil {
		return nil, err
	}
	st := &VacuumStmt{}
	if p.isWord("FULL") {
		st.Full = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind == TokIdent {
		st.Table = p.tok.Val
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseFault parses the FAULT admin statement (see FaultStmt). The leading
// FAULT has already been matched.
func (p *Parser) parseFault() (Statement, error) {
	if err := p.next(); err != nil { // consume FAULT
		return nil, err
	}
	st := &FaultStmt{Seg: -1}
	switch {
	case p.isWord("STATUS"):
		st.Verb = FaultStatus
		return st, p.next()
	case p.isWord("RESET"):
		st.Verb = FaultReset
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokString || p.tok.Kind == TokIdent {
			st.Point = p.tok.Val
			return st, p.next()
		}
		return st, nil
	case p.isWord("RESUME"):
		st.Verb = FaultResume
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.parseFaultName()
		if err != nil {
			return nil, err
		}
		st.Point = name
		return st, nil
	case p.isWord("INJECT"):
		st.Verb = FaultInject
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.parseFaultName()
		if err != nil {
			return nil, err
		}
		st.Point = name
		for {
			switch {
			case p.isWord("ACTION"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword && p.tok.Kind != TokString {
					return nil, p.errf("expected action name, found %s", p.tok)
				}
				st.Action = strings.ToLower(p.tok.Val)
				if err := p.next(); err != nil {
					return nil, err
				}
			case p.isWord("SEGMENT"):
				n, err := p.parseFaultInt("SEGMENT")
				if err != nil {
					return nil, err
				}
				st.Seg = n
			case p.isWord("MESSAGE"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if p.tok.Kind != TokString {
					return nil, p.errf("expected string after MESSAGE, found %s", p.tok)
				}
				st.Message = p.tok.Val
				if err := p.next(); err != nil {
					return nil, err
				}
			case p.isWord("SLEEP"):
				n, err := p.parseFaultInt("SLEEP")
				if err != nil {
					return nil, err
				}
				st.SleepMS = n
			case p.isWord("START"):
				n, err := p.parseFaultInt("START")
				if err != nil {
					return nil, err
				}
				st.Start = n
			case p.isWord("COUNT"):
				n, err := p.parseFaultInt("COUNT")
				if err != nil {
					return nil, err
				}
				st.Count = n
			case p.isWord("PROBABILITY"):
				n, err := p.parseFaultInt("PROBABILITY")
				if err != nil {
					return nil, err
				}
				st.Probability = n
			case p.isWord("SEED"):
				n, err := p.parseFaultInt("SEED")
				if err != nil {
					return nil, err
				}
				st.Seed = int64(n)
			default:
				return st, nil
			}
		}
	default:
		return nil, p.errf("expected INJECT, RESET, RESUME or STATUS after FAULT, found %s", p.tok)
	}
}

// parseFaultName accepts a fault-point name as a string literal or bare
// identifier.
func (p *Parser) parseFaultName() (string, error) {
	if p.tok.Kind != TokString && p.tok.Kind != TokIdent {
		return "", p.errf("expected fault point name, found %s", p.tok)
	}
	name := p.tok.Val
	return name, p.next()
}

// parseFaultInt consumes the clause keyword's value: an optionally negated
// integer literal (SEGMENT -1 targets all segments).
func (p *Parser) parseFaultInt(clause string) (int, error) {
	if err := p.next(); err != nil { // consume the clause keyword
		return 0, err
	}
	neg := false
	if p.isOp("-") {
		neg = true
		if err := p.next(); err != nil {
			return 0, err
		}
	}
	if p.tok.Kind != TokInt {
		return 0, p.errf("expected integer after %s, found %s", clause, p.tok)
	}
	n, err := strconv.Atoi(p.tok.Val)
	if err != nil {
		return 0, p.errf("bad integer after %s: %v", clause, err)
	}
	if neg {
		n = -n
	}
	return n, p.next()
}

// ---------- Expression parsing (precedence climbing) ----------

// Binding powers, loosest to tightest.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precUnary
)

func binaryPrec(op string) int {
	switch op {
	case "OR":
		return precOr
	case "AND":
		return precAnd
	case "=", "<>", "!=", "<", "<=", ">", ">=", "LIKE", "||":
		return precCmp
	case "+", "-":
		return precAdd
	case "*", "/", "%":
		return precMul
	default:
		return 0
	}
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *Parser) currentBinaryOp() string {
	if p.tok.Kind == TokOp {
		switch p.tok.Val {
		case "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||":
			return p.tok.Val
		}
	}
	if p.tok.Kind == TokKeyword {
		switch p.tok.Val {
		case "AND", "OR", "LIKE":
			return p.tok.Val
		}
	}
	return ""
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		// Postfix predicates bind at comparison level.
		if minPrec <= precCmp {
			switch {
			case p.isKw("IS"):
				if err := p.next(); err != nil {
					return nil, err
				}
				neg := false
				if p.isKw("NOT") {
					neg = true
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				left = &IsNullExpr{Operand: left, Negate: neg}
				continue
			case p.isKw("BETWEEN"):
				if err := p.next(); err != nil {
					return nil, err
				}
				lo, err := p.parseBinary(precAdd)
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseBinary(precAdd)
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{Operand: left, Lo: lo, Hi: hi}
				continue
			case p.isKw("IN"):
				if err := p.next(); err != nil {
					return nil, err
				}
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				in := &InExpr{Operand: left}
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					in.List = append(in.List, e)
					if !p.isOp(",") {
						break
					}
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				left = in
				continue
			case p.isKw("NOT"):
				// NOT BETWEEN / NOT IN / NOT LIKE
				save := p.tok
				pk, err := p.peekTok()
				if err != nil {
					return nil, err
				}
				if pk.Kind == TokKeyword && (pk.Val == "BETWEEN" || pk.Val == "IN" || pk.Val == "LIKE") {
					if err := p.next(); err != nil { // consume NOT
						return nil, err
					}
					switch {
					case p.isKw("BETWEEN"):
						if err := p.next(); err != nil {
							return nil, err
						}
						lo, err := p.parseBinary(precAdd)
						if err != nil {
							return nil, err
						}
						if err := p.expectKw("AND"); err != nil {
							return nil, err
						}
						hi, err := p.parseBinary(precAdd)
						if err != nil {
							return nil, err
						}
						left = &BetweenExpr{Operand: left, Lo: lo, Hi: hi, Negate: true}
					case p.isKw("IN"):
						if err := p.next(); err != nil {
							return nil, err
						}
						if err := p.expectOp("("); err != nil {
							return nil, err
						}
						in := &InExpr{Operand: left, Negate: true}
						for {
							e, err := p.parseExpr()
							if err != nil {
								return nil, err
							}
							in.List = append(in.List, e)
							if !p.isOp(",") {
								break
							}
							if err := p.next(); err != nil {
								return nil, err
							}
						}
						if err := p.expectOp(")"); err != nil {
							return nil, err
						}
						left = in
					case p.isKw("LIKE"):
						if err := p.next(); err != nil {
							return nil, err
						}
						right, err := p.parseBinary(precAdd)
						if err != nil {
							return nil, err
						}
						left = &UnaryOp{Op: "NOT", Operand: &BinaryOp{Op: "LIKE", Left: left, Right: right}}
					}
					continue
				}
				_ = save
			}
		}
		op := p.currentBinaryOp()
		if op == "" {
			return left, nil
		}
		prec := binaryPrec(op)
		if prec < minPrec {
			return left, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch {
	case p.isKw("NOT"):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseBinary(precNot)
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", Operand: e}, nil
	case p.isOp("-"):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseBinary(precUnary)
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return &Literal{Value: types.NewInt(-lit.Value.Int())}, nil
			case types.KindFloat:
				// 0 - x, not -x: -0.0 folds to 0, which prints as text
				// that parses back to itself.
				return &Literal{Value: types.NewFloat(0 - lit.Value.Float())}, nil
			}
		}
		return &UnaryOp{Op: "-", Operand: e}, nil
	case p.isOp("+"):
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.parseBinary(precUnary)
	default:
		return p.parsePrimary()
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokInt:
		v, err := strconv.ParseInt(p.tok.Val, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.Val)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Literal{Value: types.NewInt(v)}, nil
	case TokFloat:
		v, err := strconv.ParseFloat(p.tok.Val, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.Val)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Literal{Value: types.NewFloat(v)}, nil
	case TokString:
		s := p.tok.Val
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Literal{Value: types.NewText(s)}, nil
	case TokParam:
		idx, err := strconv.Atoi(p.tok.Val[1:])
		if err != nil || idx < 1 {
			return nil, p.errf("bad parameter %q", p.tok.Val)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Param{Index: idx}, nil
	case TokKeyword:
		switch p.tok.Val {
		case "NULL":
			if err := p.next(); err != nil {
				return nil, err
			}
			return &Literal{Value: types.Null}, nil
		case "TRUE":
			if err := p.next(); err != nil {
				return nil, err
			}
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			if err := p.next(); err != nil {
				return nil, err
			}
			return &Literal{Value: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			return nil, p.errf("EXISTS subqueries are not supported")
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			name := strings.ToLower(p.tok.Val)
			if err := p.next(); err != nil {
				return nil, err
			}
			return p.parseCallArgs(name)
		default:
			return nil, p.errf("unexpected keyword %s in expression", p.tok.Val)
		}
	case TokIdent:
		name := p.tok.Val
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseCallArgs(strings.ToLower(name))
		}
		if p.isOp(".") {
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.isOp("*") {
				if err := p.next(); err != nil {
					return nil, err
				}
				// table.* — represent as a ColumnRef with Column "*"; the
				// analyzer expands it.
				return &ColumnRef{Table: name, Column: "*"}, nil
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	case TokOp:
		if p.isOp("(") {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %s in expression", p.tok)
}

func (p *Parser) parseCallArgs(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
	if p.isOp("*") {
		f.Star = true
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.isKw("DISTINCT") {
		f.Distinct = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if !p.isOp(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if !p.isOp(",") {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}
