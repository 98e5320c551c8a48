//! TPC-C stored procedures (inserts disabled, §6.1.1).
//!
//! NewOrder, Payment and Delivery are the write (logged) procedures;
//! OrderStatus and StockLevel are read-only. Keys are computed inside the
//! expression language with the same arithmetic as `keys.rs`, so every
//! key is derivable from parameters — the §5 computability requirement
//! that enables dynamic analysis.

use super::schema::{c_col, d_col, i_col, o_col, s_col, w_col};
use super::schema::{CUSTOMER, DISTRICT, ITEM, ORDER, STOCK, WAREHOUSE};
use pacman_common::ProcId;
use pacman_sproc::{Expr, ProcBuilder, ProcRegistry, ProcedureDef};

/// `NewOrder(w, d, ol_cnt, [item, supply_w, qty]×ol_cnt)`.
pub const NEW_ORDER: ProcId = ProcId::new(0);
/// `Payment(w, d, c_w, c_d, c, amount)`.
pub const PAYMENT: ProcId = ProcId::new(1);
/// `Delivery(w, carrier, [o_id, c_id]×10)`.
pub const DELIVERY: ProcId = ProcId::new(2);
/// `OrderStatus(w, d, c, o)` — read-only.
pub const ORDER_STATUS: ProcId = ProcId::new(3);
/// `StockLevel(w, d, [item]×5)` — read-only.
pub const STOCK_LEVEL: ProcId = ProcId::new(4);

fn district_key_expr(w: Expr, d: Expr) -> Expr {
    Expr::add(Expr::mul(w, Expr::int(256)), d)
}

fn customer_key_expr(w: Expr, d: Expr, c: Expr) -> Expr {
    Expr::add(Expr::mul(district_key_expr(w, d), Expr::int(1 << 24)), c)
}

fn stock_key_expr(w: Expr, i: Expr) -> Expr {
    Expr::add(Expr::mul(w, Expr::int(1 << 24)), i)
}

fn order_key_expr(w: Expr, d: Expr, o: Expr) -> Expr {
    Expr::add(Expr::mul(district_key_expr(w, d), Expr::int(1i64 << 32)), o)
}

/// Build NewOrder.
pub fn new_order() -> ProcedureDef {
    let mut b = ProcBuilder::new(NEW_ORDER, "NewOrder", 3);
    // Tax reads (warehouse + district) feed the priced total; with order
    // insertion disabled they remain plain reads.
    let _w_tax = b.read(WAREHOUSE, Expr::param(0), w_col::TAX);
    let dkey = district_key_expr(Expr::param(0), Expr::param(1));
    let next = b.read(DISTRICT, dkey.clone(), d_col::NEXT_O_ID);
    b.write(
        DISTRICT,
        dkey,
        d_col::NEXT_O_ID,
        Expr::add(Expr::var(next), Expr::int(1)),
    );
    // Per order line: price the item and update the stock row.
    let item = || Expr::ParamOffset { base: 3, stride: 3 };
    let supply = || Expr::ParamOffset { base: 4, stride: 3 };
    let qty = || Expr::ParamOffset { base: 5, stride: 3 };
    b.repeat(Expr::param(2), |b| {
        let _price = b.read(ITEM, item(), i_col::PRICE);
        let skey = || stock_key_expr(supply(), item());
        let s_qty = b.read(STOCK, skey(), s_col::QUANTITY);
        // quantity = s_qty - qty (+91 when the shelf would run low).
        let low = Expr::gt(Expr::add(qty(), Expr::int(10)), Expr::var(s_qty));
        b.guarded(low.clone(), |b| {
            b.write(
                STOCK,
                skey(),
                s_col::QUANTITY,
                Expr::add(Expr::sub(Expr::var(s_qty), qty()), Expr::int(91)),
            );
        });
        b.guarded(Expr::not(low), |b| {
            b.write(
                STOCK,
                skey(),
                s_col::QUANTITY,
                Expr::sub(Expr::var(s_qty), qty()),
            );
        });
        let s_ytd = b.read(STOCK, skey(), s_col::YTD);
        b.write(
            STOCK,
            skey(),
            s_col::YTD,
            Expr::add(Expr::var(s_ytd), qty()),
        );
        let s_cnt = b.read(STOCK, skey(), s_col::ORDER_CNT);
        b.write(
            STOCK,
            skey(),
            s_col::ORDER_CNT,
            Expr::add(Expr::var(s_cnt), Expr::int(1)),
        );
    });
    b.build().expect("NewOrder is valid")
}

/// Build Payment.
pub fn payment() -> ProcedureDef {
    let mut b = ProcBuilder::new(PAYMENT, "Payment", 6);
    let w_ytd = b.read(WAREHOUSE, Expr::param(0), w_col::YTD);
    b.write(
        WAREHOUSE,
        Expr::param(0),
        w_col::YTD,
        Expr::add(Expr::var(w_ytd), Expr::param(5)),
    );
    let dkey = district_key_expr(Expr::param(0), Expr::param(1));
    let d_ytd = b.read(DISTRICT, dkey.clone(), d_col::YTD);
    b.write(
        DISTRICT,
        dkey,
        d_col::YTD,
        Expr::add(Expr::var(d_ytd), Expr::param(5)),
    );
    let ckey = customer_key_expr(Expr::param(2), Expr::param(3), Expr::param(4));
    let bal = b.read(CUSTOMER, ckey.clone(), c_col::BALANCE);
    b.write(
        CUSTOMER,
        ckey.clone(),
        c_col::BALANCE,
        Expr::sub(Expr::var(bal), Expr::param(5)),
    );
    let ytd_p = b.read(CUSTOMER, ckey.clone(), c_col::YTD_PAYMENT);
    b.write(
        CUSTOMER,
        ckey.clone(),
        c_col::YTD_PAYMENT,
        Expr::add(Expr::var(ytd_p), Expr::param(5)),
    );
    let cnt = b.read(CUSTOMER, ckey.clone(), c_col::PAYMENT_CNT);
    b.write(
        CUSTOMER,
        ckey,
        c_col::PAYMENT_CNT,
        Expr::add(Expr::var(cnt), Expr::int(1)),
    );
    b.build().expect("Payment is valid")
}

/// Build Delivery (one order per district, all districts of the
/// warehouse — 10 in the standard configuration).
pub fn delivery(districts_per_warehouse: u64) -> ProcedureDef {
    let mut b = ProcBuilder::new(DELIVERY, "Delivery", 2);
    let o_id = || Expr::ParamOffset { base: 2, stride: 2 };
    let c_id = || Expr::ParamOffset { base: 3, stride: 2 };
    let district = || Expr::add(Expr::LoopIndex, Expr::int(1));
    b.repeat(Expr::int(districts_per_warehouse as i64), |b| {
        let okey = || order_key_expr(Expr::param(0), district(), o_id());
        let amount = b.read(ORDER, okey(), o_col::TOTAL);
        b.write(ORDER, okey(), o_col::CARRIER, Expr::param(1));
        let ckey = || customer_key_expr(Expr::param(0), district(), c_id());
        let bal = b.read(CUSTOMER, ckey(), c_col::BALANCE);
        b.write(
            CUSTOMER,
            ckey(),
            c_col::BALANCE,
            Expr::add(Expr::var(bal), Expr::var(amount)),
        );
        let dc = b.read(CUSTOMER, ckey(), c_col::DELIVERY_CNT);
        b.write(
            CUSTOMER,
            ckey(),
            c_col::DELIVERY_CNT,
            Expr::add(Expr::var(dc), Expr::int(1)),
        );
    });
    b.build().expect("Delivery is valid")
}

/// Build OrderStatus (read-only).
pub fn order_status() -> ProcedureDef {
    let mut b = ProcBuilder::new(ORDER_STATUS, "OrderStatus", 4);
    let ckey = customer_key_expr(Expr::param(0), Expr::param(1), Expr::param(2));
    let _bal = b.read(CUSTOMER, ckey, c_col::BALANCE);
    let okey = order_key_expr(Expr::param(0), Expr::param(1), Expr::param(3));
    let _carrier = b.read(ORDER, okey.clone(), o_col::CARRIER);
    let _total = b.read(ORDER, okey, o_col::TOTAL);
    b.build().expect("OrderStatus is valid")
}

/// Build StockLevel (read-only).
pub fn stock_level() -> ProcedureDef {
    let mut b = ProcBuilder::new(STOCK_LEVEL, "StockLevel", 2);
    let dkey = district_key_expr(Expr::param(0), Expr::param(1));
    let _next = b.read(DISTRICT, dkey, d_col::NEXT_O_ID);
    let item = || Expr::ParamOffset { base: 2, stride: 1 };
    b.repeat(Expr::int(5), |b| {
        let _q = b.read(
            STOCK,
            stock_key_expr(Expr::param(0), item()),
            s_col::QUANTITY,
        );
    });
    b.build().expect("StockLevel is valid")
}

/// The full TPC-C registry for a given district count.
pub fn registry(districts_per_warehouse: u64) -> ProcRegistry {
    let mut reg = ProcRegistry::new();
    reg.register(new_order()).expect("register");
    reg.register(payment()).expect("register");
    reg.register(delivery(districts_per_warehouse))
        .expect("register");
    reg.register(order_status()).expect("register");
    reg.register(stock_level()).expect("register");
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_core::static_analysis::{ChoppingGraph, GlobalGraph, LocalGraph};

    #[test]
    fn registry_builds_and_analyzes() {
        let reg = registry(10);
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        assert!(gdg.num_blocks() >= 2, "{}", gdg.pretty());
        // District, Customer, Stock, Warehouse, Order are all written.
        for t in [WAREHOUSE, DISTRICT, CUSTOMER, STOCK, ORDER] {
            assert!(gdg.block_for_write(t).is_some(), "{t} unowned");
        }
        assert!(gdg.block_for_write(ITEM).is_none(), "item is read-only");
    }

    #[test]
    fn new_order_slices_split_district_from_stock() {
        let p = new_order();
        let lg = LocalGraph::analyze(&p);
        // The district RMW and the stock loop land in different slices
        // (different tables, no interleaving). The warehouse-tax and
        // item-price reads feed no write: replay drops them.
        assert_eq!(lg.len(), 2, "{lg:?}");
        assert!(
            !p.is_replay_live(0) && !p.is_replay_live(3),
            "{}",
            p.pretty()
        );
        assert_eq!(p.replay_plan().op_indices().count(), p.ops.len() - 2);
    }

    #[test]
    fn replay_pieces_per_procedure() {
        let reg = registry(10);
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        let pieces = |p: ProcId| gdg.templates_for(p).len();
        assert_eq!(pieces(NEW_ORDER), 2, "district, stock");
        assert_eq!(pieces(PAYMENT), 3, "warehouse, district, customer");
        assert_eq!(pieces(DELIVERY), 2, "order, customer");
        assert_eq!(pieces(ORDER_STATUS), 0);
        assert_eq!(pieces(STOCK_LEVEL), 0);
    }

    #[test]
    fn pacman_is_finer_than_chopping_on_tpcc() {
        let reg = registry(10);
        let chop = ChoppingGraph::analyze(reg.all());
        let pacman_total: usize = reg.all().iter().map(|p| LocalGraph::analyze(p).len()).sum();
        assert!(
            chop.total_pieces() < pacman_total,
            "chopping {} vs pacman {}",
            chop.total_pieces(),
            pacman_total
        );
    }

    #[test]
    fn key_expressions_match_packers() {
        use super::super::keys::*;
        use pacman_common::Value;
        use pacman_sproc::EvalCtx;
        let params = [Value::Int(9), Value::Int(4), Value::Int(123)];
        let ctx = EvalCtx::of_params(&params);
        let dk = district_key_expr(Expr::param(0), Expr::param(1));
        assert_eq!(dk.eval_key(&ctx).unwrap(), district_key(9, 4));
        let ck = customer_key_expr(Expr::param(0), Expr::param(1), Expr::param(2));
        assert_eq!(ck.eval_key(&ctx).unwrap(), customer_key(9, 4, 123));
        let sk = stock_key_expr(Expr::param(0), Expr::param(2));
        assert_eq!(sk.eval_key(&ctx).unwrap(), stock_key(9, 123));
        let ok = order_key_expr(Expr::param(0), Expr::param(1), Expr::param(2));
        assert_eq!(ok.eval_key(&ctx).unwrap(), order_key(9, 4, 123));
    }
}
