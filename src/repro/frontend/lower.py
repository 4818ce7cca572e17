"""Lowering: Mini-C AST -> IR.

The classic "simple lowering": every local variable and parameter becomes
an entry-block ``alloca`` accessed through loads and stores; mem2reg later
promotes them to SSA.  Expressions are generated in two modes — *address*
(for lvalues) and *value* — with explicit conversion casts inserted
wherever semantic analysis allowed an implicit conversion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import remove_unreachable_blocks
from repro.errors import SemanticError
from repro.frontend import ast
from repro.frontend.sema import BUILTIN_FUNCTIONS, SemanticInfo, analyze
from repro.frontend.parser import parse
from repro.ir.builder import IRBuilder
from repro.ir.instructions import AllocaInst
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.types import (
    ArrayType,
    F64,
    FloatType,
    FunctionType,
    I1,
    I8,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    ptr,
    size_of,
)
from repro.ir.values import (
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    Value,
)


def compile_source(
    source: str, module_name: str = "minic", verify: bool = True
) -> Module:
    """Front door: Mini-C source text to an IR module, verified unless the
    caller verifies it itself (``verify=False``)."""
    program = parse(source)
    info = analyze(program)
    module = Lowering(info, module_name).lower(program)
    if verify:
        from repro.ir.verifier import verify_module

        verify_module(module)
    return module


class _FunctionContext:
    def __init__(self, fn: Function, builder: IRBuilder) -> None:
        self.fn = fn
        self.builder = builder
        self.locals: List[Dict[str, Tuple[AllocaInst, Type]]] = [{}]
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []

    def push_scope(self) -> None:
        self.locals.append({})

    def pop_scope(self) -> None:
        self.locals.pop()

    def define(self, name: str, slot: AllocaInst, ty: Type) -> None:
        self.locals[-1][name] = (slot, ty)

    def lookup(self, name: str) -> Optional[Tuple[AllocaInst, Type]]:
        for scope in reversed(self.locals):
            if name in scope:
                return scope[name]
        return None


class Lowering:
    """AST-to-IR translation; consumes SemanticInfo side tables."""

    def __init__(self, info: SemanticInfo, module_name: str) -> None:
        self.info = info
        self.module = Module(module_name)
        self._string_counter = 0

    # -- module level ---------------------------------------------------------------

    def lower(self, program: ast.Program) -> Module:
        for st in self.info.structs.values():
            self.module.add_struct_type(st)
        for item in program.items:
            if isinstance(item, ast.GlobalDecl):
                self._lower_global(item)
        # Declare every function signature before lowering bodies.
        for name, signature in self.info.functions.items():
            if signature.is_builtin:
                continue
            self.module.get_or_declare(
                name, FunctionType(signature.return_type, signature.param_types)
            )
        for item in program.items:
            if isinstance(item, ast.FunctionDef) and item.body is not None:
                self._lower_function(item)
        return self.module

    def _lower_global(self, node: ast.GlobalDecl) -> None:
        ty = self.info.declared_type[id(node)]
        initializer = self._constant_initializer(ty, node.initializer)
        self.module.add_global(GlobalVariable(node.name, ty, initializer))

    def _constant_initializer(self, ty: Type, expr: Optional[ast.Expr]):
        if expr is None:
            return ConstantZero(ty)
        value = _fold_constant(expr)
        if value is None:
            raise SemanticError(
                f"global initializer must be constant (at {expr.line}:{expr.col})"
            )
        if isinstance(ty, IntType):
            return ConstantInt(ty, int(value))
        if isinstance(ty, FloatType):
            return ConstantFloat(ty, float(value))
        if isinstance(ty, PointerType):
            if value == 0:
                return ConstantNull(ty)
            raise SemanticError("pointer globals may only be initialized to null")
        raise SemanticError(f"cannot initialize a global of type {ty} from a constant")

    def _intern_string(self, data: bytes) -> GlobalVariable:
        name = f".str.{self._string_counter}"
        self._string_counter += 1
        array_ty = ArrayType(I8, len(data))
        init = ConstantArray(
            array_ty, [ConstantInt(I8, byte) for byte in data]
        )
        return self.module.add_global(
            GlobalVariable(name, array_ty, init, is_constant=True)
        )

    def _get_function(self, name: str) -> Function:
        signature = self.info.functions[name]
        return self.module.get_or_declare(
            name, FunctionType(signature.return_type, signature.param_types)
        )

    # -- functions ---------------------------------------------------------------------

    def _lower_function(self, node: ast.FunctionDef) -> None:
        fn = self._get_function(node.name)
        for arg, param in zip(fn.args, node.params):
            arg.name = param.name
        entry = fn.add_block("entry")
        builder = IRBuilder(entry)
        ctx = _FunctionContext(fn, builder)
        signature = self.info.functions[node.name]
        for arg, pty in zip(fn.args, signature.param_types):
            slot = builder.alloca(pty, name=f"{arg.name}.addr")
            builder.store(arg, slot)
            ctx.define(arg.name, slot, pty)
        assert node.body is not None
        self._lower_block(ctx, node.body)
        # Terminate any fall-through block.
        for block in fn.blocks:
            if not block.is_terminated:
                builder.position_at_end(block)
                if fn.return_type.is_void:
                    builder.ret()
                elif isinstance(fn.return_type, IntType):
                    builder.ret(ConstantInt(fn.return_type, 0))
                elif isinstance(fn.return_type, FloatType):
                    builder.ret(ConstantFloat(fn.return_type, 0.0))
                elif isinstance(fn.return_type, PointerType):
                    builder.ret(ConstantNull(fn.return_type))
                else:
                    builder.unreachable()
        remove_unreachable_blocks(fn)

    # -- statements -----------------------------------------------------------------------

    def _lower_block(self, ctx: _FunctionContext, block: ast.Block) -> None:
        ctx.push_scope()
        for stmt in block.statements:
            self._lower_stmt(ctx, stmt)
        ctx.pop_scope()

    def _lower_stmt(self, ctx: _FunctionContext, stmt: ast.Stmt) -> None:
        b = ctx.builder
        if isinstance(stmt, ast.Block):
            self._lower_block(ctx, stmt)
        elif isinstance(stmt, ast.VarDecl):
            ty = self.info.declared_type[id(stmt)]
            # Allocas go to the current block (CARAT treats dynamic stack
            # allocation uniformly); mem2reg only needs scalar entry allocas,
            # and ours are all statically sized so the entry block is best.
            entry = ctx.fn.entry
            saved_block, saved_anchor = b._block, b._anchor
            terminator = entry.terminator
            if terminator is not None:
                b.position_before(terminator)
            else:
                b.position_at_end(entry)
            slot = b.alloca(ty, name=stmt.name)
            b._block, b._anchor = saved_block, saved_anchor
            ctx.define(stmt.name, slot, ty)
            if stmt.initializer is not None:
                value = self._rvalue(ctx, stmt.initializer)
                value = self._convert(
                    ctx, value, self.info.expr_type[id(stmt.initializer)], ty
                )
                b.store(value, slot)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._rvalue(ctx, stmt.expr, discard=True)
        elif isinstance(stmt, ast.If):
            self._lower_if(ctx, stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(ctx, stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(ctx, stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(ctx, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                b.ret()
            else:
                value = self._rvalue(ctx, stmt.value)
                value = self._convert(
                    ctx,
                    value,
                    self.info.expr_type[id(stmt.value)],
                    ctx.fn.return_type,
                )
                b.ret(value)
            self._start_dead_block(ctx)
        elif isinstance(stmt, ast.Break):
            b.br(ctx.break_targets[-1])
            self._start_dead_block(ctx)
        elif isinstance(stmt, ast.Continue):
            b.br(ctx.continue_targets[-1])
            self._start_dead_block(ctx)
        else:  # pragma: no cover - sema rejects InlineAsm
            raise SemanticError(f"cannot lower {type(stmt).__name__}")

    def _start_dead_block(self, ctx: _FunctionContext) -> None:
        dead = ctx.fn.add_block("dead")
        ctx.builder.position_at_end(dead)

    def _lower_if(self, ctx: _FunctionContext, stmt: ast.If) -> None:
        b = ctx.builder
        assert stmt.cond is not None and stmt.then_body is not None
        then_bb = ctx.fn.add_block("if.then")
        merge_bb = ctx.fn.add_block("if.end")
        else_bb = ctx.fn.add_block("if.else") if stmt.else_body else merge_bb
        cond = self._condition(ctx, stmt.cond)
        b.cond_br(cond, then_bb, else_bb)
        b.position_at_end(then_bb)
        self._lower_stmt(ctx, stmt.then_body)
        if not b.block.is_terminated:
            b.br(merge_bb)
        if stmt.else_body is not None:
            b.position_at_end(else_bb)
            self._lower_stmt(ctx, stmt.else_body)
            if not b.block.is_terminated:
                b.br(merge_bb)
        b.position_at_end(merge_bb)

    def _lower_while(self, ctx: _FunctionContext, stmt: ast.While) -> None:
        b = ctx.builder
        assert stmt.cond is not None and stmt.body is not None
        header = ctx.fn.add_block("while.cond")
        body = ctx.fn.add_block("while.body")
        exit_bb = ctx.fn.add_block("while.end")
        b.br(header)
        b.position_at_end(header)
        cond = self._condition(ctx, stmt.cond)
        b.cond_br(cond, body, exit_bb)
        b.position_at_end(body)
        ctx.break_targets.append(exit_bb)
        ctx.continue_targets.append(header)
        self._lower_stmt(ctx, stmt.body)
        ctx.break_targets.pop()
        ctx.continue_targets.pop()
        if not b.block.is_terminated:
            b.br(header)
        b.position_at_end(exit_bb)

    def _lower_do_while(self, ctx: _FunctionContext, stmt: ast.DoWhile) -> None:
        b = ctx.builder
        assert stmt.cond is not None and stmt.body is not None
        body = ctx.fn.add_block("do.body")
        cond_bb = ctx.fn.add_block("do.cond")
        exit_bb = ctx.fn.add_block("do.end")
        b.br(body)
        b.position_at_end(body)
        ctx.break_targets.append(exit_bb)
        ctx.continue_targets.append(cond_bb)
        self._lower_stmt(ctx, stmt.body)
        ctx.break_targets.pop()
        ctx.continue_targets.pop()
        if not b.block.is_terminated:
            b.br(cond_bb)
        b.position_at_end(cond_bb)
        cond = self._condition(ctx, stmt.cond)
        b.cond_br(cond, body, exit_bb)
        b.position_at_end(exit_bb)

    def _lower_for(self, ctx: _FunctionContext, stmt: ast.For) -> None:
        b = ctx.builder
        assert stmt.body is not None
        ctx.push_scope()
        if stmt.init is not None:
            self._lower_stmt(ctx, stmt.init)
        header = ctx.fn.add_block("for.cond")
        body = ctx.fn.add_block("for.body")
        step_bb = ctx.fn.add_block("for.step")
        exit_bb = ctx.fn.add_block("for.end")
        b.br(header)
        b.position_at_end(header)
        if stmt.cond is not None:
            cond = self._condition(ctx, stmt.cond)
            b.cond_br(cond, body, exit_bb)
        else:
            b.br(body)
        b.position_at_end(body)
        ctx.break_targets.append(exit_bb)
        ctx.continue_targets.append(step_bb)
        self._lower_stmt(ctx, stmt.body)
        ctx.break_targets.pop()
        ctx.continue_targets.pop()
        if not b.block.is_terminated:
            b.br(step_bb)
        b.position_at_end(step_bb)
        if stmt.step is not None:
            self._rvalue(ctx, stmt.step, discard=True)
        b.br(header)
        b.position_at_end(exit_bb)
        ctx.pop_scope()

    # -- expression helpers ----------------------------------------------------------------

    def _expr_type(self, expr: ast.Expr) -> Type:
        return self.info.expr_type[id(expr)]

    def _condition(self, ctx: _FunctionContext, expr: ast.Expr) -> Value:
        """Lower ``expr`` to an i1 truth value."""
        value = self._rvalue(ctx, expr)
        return self._truthy(ctx, value)

    def _truthy(self, ctx: _FunctionContext, value: Value) -> Value:
        b = ctx.builder
        ty = value.type
        if ty == I1:
            return value
        if isinstance(ty, IntType):
            return b.icmp("ne", value, ConstantInt(ty, 0))
        if isinstance(ty, PointerType):
            return b.icmp("ne", value, ConstantNull(ty))
        if isinstance(ty, FloatType):
            return b.fcmp("one", value, ConstantFloat(ty, 0.0))
        raise SemanticError(f"cannot use {ty} as a condition")

    def _convert(
        self, ctx: _FunctionContext, value: Value, source: Type, target: Type
    ) -> Value:
        b = ctx.builder
        if source == target:
            return value
        if isinstance(source, IntType) and isinstance(target, IntType):
            if isinstance(value, ConstantInt):
                return ConstantInt(target, value.value)
            if source.bits < target.bits:
                return b.sext(value, target)
            if source.bits > target.bits:
                return b.trunc(value, target)
            return value
        if isinstance(source, IntType) and isinstance(target, FloatType):
            if isinstance(value, ConstantInt):
                return ConstantFloat(target, float(value.value))
            return b.sitofp(value, target)
        if isinstance(source, FloatType) and isinstance(target, IntType):
            return b.fptosi(value, target)
        if isinstance(source, PointerType) and isinstance(target, PointerType):
            if isinstance(value, ConstantNull):
                return ConstantNull(target)
            return b.bitcast(value, target)
        if isinstance(source, PointerType) and isinstance(target, IntType):
            return b.ptrtoint(value, target)
        if isinstance(source, IntType) and isinstance(target, PointerType):
            return b.inttoptr(value, target)
        raise SemanticError(f"no conversion from {source} to {target}")

    # -- lvalues -----------------------------------------------------------------------------

    def _address(self, ctx: _FunctionContext, expr: ast.Expr) -> Value:
        """Address of an lvalue expression (a pointer value)."""
        b = ctx.builder
        if isinstance(expr, ast.Identifier):
            local = ctx.lookup(expr.name)
            if local is not None:
                return local[0]
            if expr.name in self.info.globals:
                return self.module.get_global(expr.name)
            raise SemanticError(f"no address for identifier {expr.name!r}")
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            assert expr.operand is not None
            return self._rvalue(ctx, expr.operand)
        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            base = self._rvalue(ctx, expr.base)
            index = self._rvalue(ctx, expr.index)
            index = self._convert(ctx, index, self._expr_type(expr.index), I64)
            return b.gep(base, [index])
        if isinstance(expr, ast.Member):
            assert expr.base is not None
            if expr.arrow:
                base_ptr = self._rvalue(ctx, expr.base)
                struct_ty = base_ptr.type.pointee  # type: ignore[union-attr]
            else:
                base_ptr = self._address(ctx, expr.base)
                struct_ty = base_ptr.type.pointee  # type: ignore[union-attr]
            assert isinstance(struct_ty, StructType)
            field_index = struct_ty.field_index(expr.field_name)
            return b.gep(
                base_ptr,
                [ConstantInt(I64, 0), ConstantInt(I64, field_index)],
            )
        raise SemanticError(
            f"expression is not an lvalue (at {expr.line}:{expr.col})"
        )

    # -- rvalues ------------------------------------------------------------------------------

    def _rvalue(
        self, ctx: _FunctionContext, expr: ast.Expr, discard: bool = False
    ) -> Value:
        b = ctx.builder
        if isinstance(expr, ast.IntLiteral):
            return ConstantInt(I64, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return ConstantFloat(F64, expr.value)
        if isinstance(expr, ast.NullLiteral):
            return ConstantNull(ptr(I8))
        if isinstance(expr, ast.StringLiteral):
            gv = self._intern_string(expr.value)
            zero = ConstantInt(I64, 0)
            return b.gep(gv, [zero, zero])
        if isinstance(expr, ast.Identifier):
            kind, declared = self.info.symbol_kind[id(expr)]
            address = self._address(ctx, expr)
            if isinstance(declared, ArrayType):
                zero = ConstantInt(I64, 0)
                return b.gep(address, [zero, zero])
            return b.load(address)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(ctx, expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(ctx, expr)
        if isinstance(expr, ast.Assignment):
            return self._lower_assignment(ctx, expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(ctx, expr, discard)
        if isinstance(expr, ast.Index):
            element_ty = self._storage_type_of(expr)
            address = self._address_of_access(ctx, expr)
            if isinstance(element_ty, ArrayType):
                zero = ConstantInt(I64, 0)
                return b.gep(address, [zero, zero])
            return b.load(address)
        if isinstance(expr, ast.Member):
            field_ty = self._storage_type_of(expr)
            address = self._address(ctx, expr)
            if isinstance(field_ty, ArrayType):
                zero = ConstantInt(I64, 0)
                return b.gep(address, [zero, zero])
            return b.load(address)
        if isinstance(expr, ast.Cast):
            assert expr.operand is not None
            value = self._rvalue(ctx, expr.operand)
            return self._convert(
                ctx, value, self._expr_type(expr.operand), self._expr_type(expr)
            )
        if isinstance(expr, ast.SizeOf):
            ty = self.info.declared_type[id(expr)]
            return ConstantInt(I64, size_of(ty))
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(ctx, expr)
        raise SemanticError(f"cannot lower expression {type(expr).__name__}")

    def _storage_type_of(self, expr: ast.Expr) -> Type:
        """The declared (pre-decay) type of the storage an Index/Member
        expression denotes."""
        if isinstance(expr, ast.Index):
            assert expr.base is not None
            base_ty = self._expr_type(expr.base)
            assert isinstance(base_ty, PointerType)
            return base_ty.pointee
        if isinstance(expr, ast.Member):
            assert expr.base is not None
            base_ty = self._expr_type(expr.base)
            if expr.arrow:
                assert isinstance(base_ty, PointerType)
                struct_ty = base_ty.pointee
            else:
                struct_ty = base_ty
            assert isinstance(struct_ty, StructType)
            return struct_ty.fields[struct_ty.field_index(expr.field_name)]
        raise AssertionError("storage type only defined for Index/Member")

    def _address_of_access(self, ctx: _FunctionContext, expr: ast.Index) -> Value:
        assert expr.base is not None and expr.index is not None
        b = ctx.builder
        base = self._rvalue(ctx, expr.base)
        index = self._rvalue(ctx, expr.index)
        index = self._convert(ctx, index, self._expr_type(expr.index), I64)
        return b.gep(base, [index])

    def _lower_binary(self, ctx: _FunctionContext, expr: ast.BinaryOp) -> Value:
        assert expr.lhs is not None and expr.rhs is not None
        b = ctx.builder
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_logical(ctx, expr)
        lhs_ty = self._expr_type(expr.lhs)
        rhs_ty = self._expr_type(expr.rhs)
        result_ty = self._expr_type(expr)

        # Pointer arithmetic.
        if op in ("+", "-") and (lhs_ty.is_pointer or rhs_ty.is_pointer):
            if lhs_ty.is_pointer and rhs_ty.is_pointer:
                lhs = self._rvalue(ctx, expr.lhs)
                rhs = self._rvalue(ctx, expr.rhs)
                li = b.ptrtoint(lhs, I64)
                ri = b.ptrtoint(rhs, I64)
                diff = b.sub(li, ri)
                assert isinstance(lhs_ty, PointerType)
                element = size_of(lhs_ty.pointee)
                if element > 1:
                    return b.sdiv(diff, ConstantInt(I64, element))
                return diff
            if lhs_ty.is_pointer:
                pointer = self._rvalue(ctx, expr.lhs)
                offset = self._rvalue(ctx, expr.rhs)
                offset = self._convert(ctx, offset, rhs_ty, I64)
            else:
                pointer = self._rvalue(ctx, expr.rhs)
                offset = self._rvalue(ctx, expr.lhs)
                offset = self._convert(ctx, offset, lhs_ty, I64)
            if op == "-":
                offset = b.sub(ConstantInt(I64, 0), offset)
            return b.gep(pointer, [offset])

        # Comparisons.
        if op in ("==", "!=", "<", "<=", ">", ">="):
            pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}[op]
            lhs = self._rvalue(ctx, expr.lhs)
            rhs = self._rvalue(ctx, expr.rhs)
            if lhs_ty.is_pointer or rhs_ty.is_pointer:
                # Normalize: compare as integers (handles ptr vs 0/null).
                if lhs.type.is_pointer:
                    lhs = b.ptrtoint(lhs, I64)
                else:
                    lhs = self._convert(ctx, lhs, lhs_ty, I64)
                if rhs.type.is_pointer:
                    rhs = b.ptrtoint(rhs, I64)
                else:
                    rhs = self._convert(ctx, rhs, rhs_ty, I64)
                flag = b.icmp(pred, lhs, rhs)
            else:
                common = self._arith_common(lhs_ty, rhs_ty)
                lhs = self._convert(ctx, lhs, lhs_ty, common)
                rhs = self._convert(ctx, rhs, rhs_ty, common)
                if common.is_float:
                    fpred = {"eq": "oeq", "ne": "one", "slt": "olt", "sle": "ole", "sgt": "ogt", "sge": "oge"}[pred]
                    flag = b.fcmp(fpred, lhs, rhs)
                else:
                    flag = b.icmp(pred, lhs, rhs)
            return b.zext(flag, I64)

        # Plain arithmetic / bitwise.
        common = self._arith_common(lhs_ty, rhs_ty)
        lhs = self._convert(ctx, self._rvalue(ctx, expr.lhs), lhs_ty, common)
        rhs = self._convert(ctx, self._rvalue(ctx, expr.rhs), rhs_ty, common)
        if common.is_float:
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}[op]
        else:
            opcode = {
                "+": "add",
                "-": "sub",
                "*": "mul",
                "/": "sdiv",
                "%": "srem",
                "&": "and",
                "|": "or",
                "^": "xor",
                "<<": "shl",
                ">>": "ashr",
            }[op]
        result = b.binop(opcode, lhs, rhs)
        return self._convert(ctx, result, common, result_ty)

    @staticmethod
    def _arith_common(a: Type, b: Type) -> Type:
        if a.is_float or b.is_float:
            return F64
        assert isinstance(a, IntType) and isinstance(b, IntType)
        return a if a.bits >= b.bits else b

    def _lower_logical(self, ctx: _FunctionContext, expr: ast.BinaryOp) -> Value:
        """Short-circuit && / || producing 0/1 as i64."""
        assert expr.lhs is not None and expr.rhs is not None
        b = ctx.builder
        rhs_bb = ctx.fn.add_block("logic.rhs")
        merge_bb = ctx.fn.add_block("logic.end")
        lhs_flag = self._condition(ctx, expr.lhs)
        lhs_end = b.block
        if expr.op == "&&":
            b.cond_br(lhs_flag, rhs_bb, merge_bb)
            short_value = ConstantInt(I1, 0)
        else:
            b.cond_br(lhs_flag, merge_bb, rhs_bb)
            short_value = ConstantInt(I1, 1)
        b.position_at_end(rhs_bb)
        rhs_flag = self._condition(ctx, expr.rhs)
        rhs_end = b.block
        b.br(merge_bb)
        b.position_at_end(merge_bb)
        phi = b.phi(I1, "logic")
        phi.add_incoming(short_value, lhs_end)
        phi.add_incoming(rhs_flag, rhs_end)
        return b.zext(phi, I64)

    def _lower_unary(self, ctx: _FunctionContext, expr: ast.UnaryOp) -> Value:
        assert expr.operand is not None
        b = ctx.builder
        if expr.op == "*":
            pointee_ty = self._expr_type(expr)
            address = self._rvalue(ctx, expr.operand)
            operand_ty = self._expr_type(expr.operand)
            assert isinstance(operand_ty, PointerType)
            if isinstance(operand_ty.pointee, ArrayType):
                zero = ConstantInt(I64, 0)
                return b.gep(address, [zero, zero])
            return b.load(address)
        if expr.op == "&":
            return self._address(ctx, expr.operand)
        value = self._rvalue(ctx, expr.operand)
        source_ty = self._expr_type(expr.operand)
        result_ty = self._expr_type(expr)
        if expr.op == "-":
            value = self._convert(ctx, value, source_ty, result_ty)
            if result_ty.is_float:
                return b.fsub(ConstantFloat(F64, 0.0), value)
            assert isinstance(result_ty, IntType)
            return b.sub(ConstantInt(result_ty, 0), value)
        if expr.op == "!":
            flag = self._truthy(ctx, value)
            inverted = b.xor(flag, ConstantInt(I1, 1))
            return b.zext(inverted, I64)
        if expr.op == "~":
            value = self._convert(ctx, value, source_ty, result_ty)
            assert isinstance(result_ty, IntType)
            return b.xor(value, ConstantInt(result_ty, -1))
        raise SemanticError(f"unknown unary operator {expr.op!r}")

    def _lower_assignment(self, ctx: _FunctionContext, expr: ast.Assignment) -> Value:
        assert expr.target is not None and expr.value is not None
        b = ctx.builder
        address = self._address(ctx, expr.target)
        target_ty = address.type.pointee  # type: ignore[union-attr]
        value = self._rvalue(ctx, expr.value)
        value_ty = self._expr_type(expr.value)
        if expr.op == "=":
            stored = self._convert(ctx, value, value_ty, target_ty)
        else:
            binary_op = expr.op[0]
            current = b.load(address)
            if isinstance(target_ty, PointerType):
                offset = self._convert(ctx, value, value_ty, I64)
                if binary_op == "-":
                    offset = b.sub(ConstantInt(I64, 0), offset)
                stored = b.gep(current, [offset])
            elif target_ty.is_float:
                value_f = self._convert(ctx, value, value_ty, F64)
                opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}[binary_op]
                stored = b.binop(opcode, current, value_f)
            else:
                assert isinstance(target_ty, IntType)
                value_i = self._convert(ctx, value, value_ty, target_ty)
                opcode = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem"}[binary_op]
                stored = b.binop(opcode, current, value_i)
        b.store(stored, address)
        return stored

    def _lower_call(
        self, ctx: _FunctionContext, expr: ast.Call, discard: bool
    ) -> Value:
        b = ctx.builder
        signature = self.info.functions[expr.name]
        fn = self.module.get_or_declare(
            expr.name, FunctionType(signature.return_type, signature.param_types)
        )
        args: List[Value] = []
        for arg, pty in zip(expr.args, signature.param_types):
            value = self._rvalue(ctx, arg)
            args.append(self._convert(ctx, value, self._expr_type(arg), pty))
        call = b.call(fn, args)
        if signature.return_type.is_void and not discard:
            # Void value used in an expression; sema only allows this in
            # expression statements, so reaching here is a bug.
            pass
        return call

    def _lower_conditional(self, ctx: _FunctionContext, expr: ast.Conditional) -> Value:
        assert expr.cond and expr.if_true and expr.if_false
        b = ctx.builder
        result_ty = self._expr_type(expr)
        true_bb = ctx.fn.add_block("cond.true")
        false_bb = ctx.fn.add_block("cond.false")
        merge_bb = ctx.fn.add_block("cond.end")
        cond = self._condition(ctx, expr.cond)
        b.cond_br(cond, true_bb, false_bb)
        b.position_at_end(true_bb)
        true_value = self._rvalue(ctx, expr.if_true)
        true_value = self._convert(
            ctx, true_value, self._expr_type(expr.if_true), result_ty
        )
        true_end = b.block
        b.br(merge_bb)
        b.position_at_end(false_bb)
        false_value = self._rvalue(ctx, expr.if_false)
        false_value = self._convert(
            ctx, false_value, self._expr_type(expr.if_false), result_ty
        )
        false_end = b.block
        b.br(merge_bb)
        b.position_at_end(merge_bb)
        phi = b.phi(result_ty, "cond")
        phi.add_incoming(true_value, true_end)
        phi.add_incoming(false_value, false_end)
        return phi


def _fold_constant(expr: ast.Expr):
    """Fold a constant initializer expression to a Python number, or None."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.FloatLiteral):
        return expr.value
    if isinstance(expr, ast.NullLiteral):
        return 0
    if isinstance(expr, ast.UnaryOp) and expr.op == "-" and expr.operand is not None:
        inner = _fold_constant(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.BinaryOp) and expr.lhs is not None and expr.rhs is not None:
        lhs = _fold_constant(expr.lhs)
        rhs = _fold_constant(expr.rhs)
        if lhs is None or rhs is None:
            return None
        try:
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                return lhs // rhs if isinstance(lhs, int) and isinstance(rhs, int) else lhs / rhs
        except ZeroDivisionError:
            return None
    return None
